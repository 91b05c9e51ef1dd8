//! The persistent container behind the MVCC snapshot store.
//!
//! [`crate::shared::SharedStore`] publishes the store as an immutable
//! `Arc<ObjectStore>` per version; readers pin one snapshot for a whole
//! request and never block behind writers. Publishing clones the master, so
//! every versioned collection of the store must clone in O(1) and pay for a
//! write only in proportion to what the write touches. [`RadixMap`] is that
//! collection: a persistent radix trie over `u64` keys (surrogates).
//!
//! * Nodes are `Arc`-shared, so `clone` bumps one refcount.
//! * A write copies only the root-to-leaf path of the key it touches — at
//!   most one node per level, [`FANOUT`] slots each — and every node off
//!   that path stays shared with the older versions.
//! * The trie grows a level whenever a key does not fit under the current
//!   root, so sparse or huge keys work; dense keys (the store-wide surrogate
//!   counter) keep it shallow: three levels span 262 144 keys.
//! * Values sit inline in the leaves, and iteration is in key order.
//!
//! The map is not concurrent — it is a plain single-writer value inside the
//! master store, made cheap to *clone*.

use std::sync::Arc;

/// Key bits one trie level consumes.
const BITS: u32 = 6;

/// Children per inner node and values per leaf.
pub const FANOUT: usize = 1 << BITS;

/// Level 0 is a leaf; an inner node at level `l` spans `FANOUT^(l+1)` keys.
enum Node<V> {
    Inner(Arc<[Option<Node<V>>; FANOUT]>),
    Leaf(Arc<[Option<V>; FANOUT]>),
}

impl<V> Clone for Node<V> {
    fn clone(&self) -> Self {
        match self {
            Node::Inner(children) => Node::Inner(Arc::clone(children)),
            Node::Leaf(values) => Node::Leaf(Arc::clone(values)),
        }
    }
}

impl<V> Node<V> {
    fn empty(level: u32) -> Self {
        if level == 0 {
            Node::Leaf(Arc::new(std::array::from_fn(|_| None)))
        } else {
            Node::Inner(Arc::new(std::array::from_fn(|_| None)))
        }
    }

    fn is_empty(&self) -> bool {
        match self {
            Node::Inner(children) => children.iter().all(Option::is_none),
            Node::Leaf(values) => values.iter().all(Option::is_none),
        }
    }
}

/// The slot `key` takes in a node at `level`.
fn digit(key: u64, level: u32) -> usize {
    ((key >> (BITS * level)) as usize) & (FANOUT - 1)
}

/// The smallest key whose digits above `level` are `key`'s and whose digit
/// at `level` is `d`.
fn with_digit(key: u64, level: u32, d: usize) -> u64 {
    let below = ((1u64 << (BITS * level)) << BITS).wrapping_sub(1);
    (key & !below) | ((d as u64) << (BITS * level))
}

/// Does a trie of `height` levels above its leaves span `key`?
fn fits(height: u32, key: u64) -> bool {
    (key >> (BITS * height)) >> BITS == 0
}

/// A persistent map from `u64` to `V`: O(1) clone, O(depth) unshare per
/// written key, in-order iteration.
pub struct RadixMap<V> {
    root: Option<Node<V>>,
    /// Levels above the leaves: the trie spans keys below `FANOUT^(height+1)`.
    height: u32,
    len: usize,
}

impl<V> Clone for RadixMap<V> {
    fn clone(&self) -> Self {
        RadixMap {
            root: self.root.clone(),
            height: self.height,
            len: self.len,
        }
    }
}

impl<V> Default for RadixMap<V> {
    fn default() -> Self {
        RadixMap {
            root: None,
            height: 0,
            len: 0,
        }
    }
}

impl<V: Clone> RadixMap<V> {
    /// Empty map.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Is the map empty?
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Shared lookup.
    pub fn get(&self, key: u64) -> Option<&V> {
        if !fits(self.height, key) {
            return None;
        }
        let mut node = self.root.as_ref()?;
        let mut level = self.height;
        loop {
            match node {
                Node::Inner(children) => {
                    node = children[digit(key, level)].as_ref()?;
                    level -= 1;
                }
                Node::Leaf(values) => return values[digit(key, level)].as_ref(),
            }
        }
    }

    /// Is `key` present?
    pub fn contains_key(&self, key: u64) -> bool {
        self.get(key).is_some()
    }

    /// Mutable lookup. Unshares the path to `key` only if it is present.
    pub fn get_mut(&mut self, key: u64) -> Option<&mut V> {
        if !self.contains_key(key) {
            return None;
        }
        self.slot(key).as_mut()
    }

    /// Insert, returning the value `key` had.
    pub fn insert(&mut self, key: u64, value: V) -> Option<V> {
        let old = self.slot(key).replace(value);
        if old.is_none() {
            self.len += 1;
        }
        old
    }

    /// Mutable reference to `key`'s value, inserting `V::default()` first if
    /// absent (the `entry().or_default()` idiom).
    pub fn entry_or_default(&mut self, key: u64) -> &mut V
    where
        V: Default,
    {
        self.grow_to(key);
        let slot = Self::slot_in(&mut self.root, self.height, key);
        if slot.is_none() {
            self.len += 1;
        }
        slot.get_or_insert_with(V::default)
    }

    /// Remove and return the value. An absent key unshares nothing; nodes
    /// left empty are dropped.
    pub fn remove(&mut self, key: u64) -> Option<V> {
        if !self.contains_key(key) {
            return None;
        }
        let root = self.root.as_mut().expect("a present key has a root");
        let old = Self::take(root, self.height, key);
        if root.is_empty() {
            *self = Self::default();
        } else {
            self.len -= 1;
        }
        old
    }

    /// Iterate `(key, &value)` in key order. Each step is one descent from
    /// the root, so iterating allocates nothing.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &V)> + '_ {
        // The smallest key not yet visited; `None` once past `u64::MAX`.
        let mut next = Some(0);
        std::iter::from_fn(move || {
            let found = self.seek(next?);
            next = found.and_then(|(k, _)| k.checked_add(1));
            found
        })
    }

    /// Iterate keys in order.
    pub fn keys(&self) -> impl Iterator<Item = u64> + '_ {
        self.iter().map(|(k, _)| k)
    }

    /// Add levels above the root until the trie spans `key`.
    fn grow_to(&mut self, key: u64) {
        while !fits(self.height, key) {
            if let Some(old) = self.root.take() {
                let mut children: [Option<Node<V>>; FANOUT] = std::array::from_fn(|_| None);
                children[0] = Some(old);
                self.root = Some(Node::Inner(Arc::new(children)));
            }
            self.height += 1;
        }
    }

    /// `key`'s slot, creating missing nodes and unsharing shared ones on the
    /// way down.
    fn slot(&mut self, key: u64) -> &mut Option<V> {
        self.grow_to(key);
        Self::slot_in(&mut self.root, self.height, key)
    }

    fn slot_in(root: &mut Option<Node<V>>, height: u32, key: u64) -> &mut Option<V> {
        let mut level = height;
        let mut node = root.get_or_insert_with(|| Node::empty(level));
        loop {
            match node {
                Node::Inner(children) => {
                    let child = &mut Arc::make_mut(children)[digit(key, level)];
                    level -= 1;
                    node = child.get_or_insert_with(|| Node::empty(level));
                }
                Node::Leaf(values) => return &mut Arc::make_mut(values)[digit(key, level)],
            }
        }
    }

    fn take(node: &mut Node<V>, level: u32, key: u64) -> Option<V> {
        match node {
            Node::Leaf(values) => Arc::make_mut(values)[digit(key, level)].take(),
            Node::Inner(children) => {
                let slot = &mut Arc::make_mut(children)[digit(key, level)];
                let child = slot.as_mut()?;
                let old = Self::take(child, level - 1, key);
                if child.is_empty() {
                    *slot = None;
                }
                old
            }
        }
    }

    /// The first entry with key `>= from`.
    fn seek(&self, from: u64) -> Option<(u64, &V)> {
        if !fits(self.height, from) {
            return None;
        }
        Self::seek_in(self.root.as_ref()?, self.height, from)
    }

    fn seek_in(node: &Node<V>, level: u32, from: u64) -> Option<(u64, &V)> {
        let first = digit(from, level);
        match node {
            Node::Leaf(values) => (first..FANOUT)
                .find_map(|d| values[d].as_ref().map(|v| (with_digit(from, 0, d), v))),
            Node::Inner(children) => (first..FANOUT).find_map(|d| {
                // Past the first child, start from that child's smallest key.
                let from = if d == first {
                    from
                } else {
                    with_digit(from, level, d)
                };
                Self::seek_in(children[d].as_ref()?, level - 1, from)
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    /// One step of a random history, applied to a [`RadixMap`] and to a
    /// `BTreeMap` model side by side.
    #[derive(Clone, Debug)]
    enum Step {
        Insert(u64, u32),
        Remove(u64),
        GetMut(u64, u32),
        Entry(u64, u32),
        /// Keep a clone of both sides; every kept clone is re-checked after
        /// every later step, so a write that leaks into an older version
        /// fails.
        Fork,
    }

    type Map = RadixMap<Vec<u32>>;
    type Model = BTreeMap<u64, Vec<u32>>;

    fn check(map: &Map, model: &Model, probes: &[u64]) -> Result<(), String> {
        let got: Vec<(u64, &Vec<u32>)> = map.iter().collect();
        let want: Vec<(u64, &Vec<u32>)> = model.iter().map(|(k, v)| (*k, v)).collect();
        if got != want || map.len() != model.len() {
            return Err(format!(
                "len {} vs {}: {got:?} vs {want:?}",
                map.len(),
                model.len()
            ));
        }
        for &k in probes.iter().chain(&[0, 1, u64::MAX]) {
            if map.get(k) != model.get(&k) {
                return Err(format!("get({k}): {:?} vs {:?}", map.get(k), model.get(&k)));
            }
        }
        Ok(())
    }

    /// Run `steps` on both sides, checking the live pair and every kept
    /// clone after each step.
    fn run(steps: &[Step]) -> Result<(), String> {
        let (mut map, mut model) = (Map::new(), Model::new());
        let mut kept: Vec<(Map, Model)> = Vec::new();
        let mut probes = Vec::new();
        for step in steps {
            match *step {
                Step::Insert(k, v) => {
                    probes.push(k);
                    if map.insert(k, vec![v]) != model.insert(k, vec![v]) {
                        return Err(format!("insert({k}) returned a different old value"));
                    }
                }
                Step::Remove(k) => {
                    probes.push(k);
                    if map.remove(k) != model.remove(&k) {
                        return Err(format!("remove({k}) returned a different value"));
                    }
                }
                Step::GetMut(k, v) => {
                    probes.push(k);
                    match (map.get_mut(k), model.get_mut(&k)) {
                        (Some(a), Some(b)) => {
                            a.push(v);
                            b.push(v);
                        }
                        (None, None) => {}
                        (a, b) => return Err(format!("get_mut({k}): {a:?} vs {b:?}")),
                    }
                }
                Step::Entry(k, v) => {
                    probes.push(k);
                    map.entry_or_default(k).push(v);
                    model.entry(k).or_default().push(v);
                }
                Step::Fork => kept.push((map.clone(), model.clone())),
            }
            check(&map, &model, &probes)?;
            for (i, (m, md)) in kept.iter().enumerate() {
                check(m, md, &probes).map_err(|e| format!("clone {i}: {e}"))?;
            }
        }
        Ok(())
    }

    fn key() -> BoxedStrategy<u64> {
        prop_oneof![
            4 => 0u64..300,
            2 => any::<u64>(),
            1 => Just(0u64),
            1 => Just(u64::MAX),
            1 => (u64::MAX - 70)..=u64::MAX,
        ]
    }

    fn step() -> BoxedStrategy<Step> {
        prop_oneof![
            4 => (key(), any::<u32>()).prop_map(|(k, v)| Step::Insert(k, v)),
            2 => key().prop_map(Step::Remove),
            2 => (key(), any::<u32>()).prop_map(|(k, v)| Step::GetMut(k, v)),
            2 => (key(), any::<u32>()).prop_map(|(k, v)| Step::Entry(k, v)),
            1 => Just(Step::Fork),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn matches_a_btreemap_model(steps in proptest::collection::vec(step(), 1..80)) {
            run(&steps).map_err(TestCaseError::fail)?;
        }
    }

    #[test]
    fn basic_ops() {
        use Step::*;
        run(&[
            Insert(1, 10),
            Insert(2, 20),
            Insert(1, 11),
            Remove(2),
            Remove(2),
            GetMut(1, 12),
            GetMut(3, 30),
            Entry(3, 31),
        ])
        .unwrap();
    }

    #[test]
    fn clone_is_isolated_both_ways() {
        let mut a: Map = Map::new();
        for i in 0..100 {
            a.insert(i, vec![i as u32]);
        }
        let b = a.clone();
        // Mutations on `a` after the clone are invisible in `b`.
        a.insert(7, vec![700]);
        a.remove(8).unwrap();
        a.entry_or_default(9).push(900);
        a.entry_or_default(1000).push(1);
        assert_eq!(b.get(7), Some(&vec![7]));
        assert_eq!(b.get(8), Some(&vec![8]));
        assert_eq!(b.get(9), Some(&vec![9]));
        assert!(!b.contains_key(1000));
        assert_eq!(b.len(), 100);
        assert_eq!(a.get(7), Some(&vec![700]));
        assert_eq!(a.get(9), Some(&vec![9, 900]));
        assert_eq!(a.len(), 100, "one removed, one inserted");
        // Entries in leaves no write touched are the same allocation.
        assert!(std::ptr::eq(a.get(80).unwrap(), b.get(80).unwrap()));
        // The history as steps, through the model checker.
        use Step::*;
        let mut steps: Vec<Step> = (0..100).map(|i| Insert(i, i as u32)).collect();
        steps.extend([
            Fork,
            Insert(7, 700),
            Remove(8),
            Entry(9, 900),
            Entry(1000, 1),
        ]);
        run(&steps).unwrap();
    }

    #[test]
    fn get_mut_after_clone_unshares() {
        let mut a: Map = Map::new();
        a.insert(1, vec![1]);
        a.insert(2, vec![2]);
        let b = a.clone();
        for k in [1, 2] {
            a.get_mut(k).unwrap().push(99);
        }
        assert!(a.iter().all(|(_, v)| v.ends_with(&[99])));
        assert!(b.iter().all(|(_, v)| v.len() == 1));
    }

    #[test]
    fn iterates_in_key_order_across_leaves() {
        let mut m = RadixMap::new();
        let n = FANOUT as u64 * 2 + 10;
        for i in (0..n).rev() {
            m.insert(i, i);
        }
        // Sparse and huge keys grow the trie to full height.
        m.insert(u64::MAX, 0);
        m.insert(1 << 40, 0);
        assert_eq!(m.len() as u64, n + 2);
        let keys: Vec<u64> = m.keys().collect();
        let mut want: Vec<u64> = (0..n).collect();
        want.extend([1 << 40, u64::MAX]);
        assert_eq!(keys, want);
        let tail: Vec<u64> = m.keys().skip_while(|k| *k < n - 3).collect();
        assert_eq!(tail, vec![n - 3, n - 2, n - 1, 1 << 40, u64::MAX]);
        assert_eq!(m.get(n), None);
    }

    #[test]
    fn clone_shares_untouched_leaves() {
        let mut a = RadixMap::new();
        for i in 0..FANOUT as u64 + 5 {
            a.insert(i, i);
        }
        let b = a.clone();
        a.insert(777, 777);
        assert_eq!(a.len(), FANOUT + 6);
        assert_eq!(b.len(), FANOUT + 5);
        assert_eq!(b.get(777), None);
        // The first leaf is untouched and stays shared between versions.
        assert!(std::ptr::eq(a.get(0).unwrap(), b.get(0).unwrap()));
        // Removing an absent key unshares nothing either.
        assert_eq!(a.remove(5000), None);
        assert!(std::ptr::eq(a.get(3).unwrap(), b.get(3).unwrap()));
    }
}
