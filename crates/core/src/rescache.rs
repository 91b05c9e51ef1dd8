//! Lock-striped resolution value cache that validates on read.
//!
//! Memoized [`crate::ObjectStore::attr`] results live in N shards keyed by
//! a surrogate hash, so hits on different objects take different locks.
//! No write touches the cache: an entry records the store's mutation
//! counter ([`crate::ObjectStore::tick`]) it was resolved at and the
//! relationships it crossed ([`Deps`]), and each reader checks those in
//! *its own* snapshot (DESIGN §6.1). Staleness is thus ruled out by what
//! the entry records, not by the order writers and readers touch the cache.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};

use parking_lot::RwLock;

use crate::surrogate::Surrogate;
use crate::value::Value;

/// Relationships an entry records (two-hop chains and shorter).
const INLINE_RELS: usize = 2;

/// Marks a chain [`Deps`] could not record.
const UNRECORDED: u32 = u32::MAX;

/// What one resolved value depends on: the inheritance relationships its
/// chain crossed, in order, as 32-bit surrogates (0 ends the list); the
/// holder is the last one's transmitter, or the entry's own object. A chain
/// this cannot record is served only at the position it was resolved at.
/// With a boxed-`str` key, an entry is no larger than one without deps.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct Deps([u32; INLINE_RELS]);

impl Deps {
    /// Record one crossing, through `rel`.
    pub fn cross(&mut self, rel: Surrogate) {
        if *self == Self::UNRECORDED {
            return;
        }
        match (u32::try_from(rel.0), self.0.iter().position(|r| *r == 0)) {
            (Ok(r), Some(free)) if r != 0 && r != UNRECORDED => self.0[free] = r,
            _ => *self = Self::UNRECORDED,
        }
    }

    /// Deps of a value valid only at the position it was resolved at.
    pub const UNRECORDED: Deps = Deps([UNRECORDED; INLINE_RELS]);

    /// The relationships crossed, in chain order; `None` if the chain was
    /// not recorded.
    pub fn rels(&self) -> Option<impl Iterator<Item = Surrogate> + '_> {
        let crossed = self.0.iter().take_while(|r| **r != 0);
        (*self != Self::UNRECORDED).then_some(crossed.map(|r| Surrogate(u64::from(*r))))
    }
}

/// What a cache lookup found.
#[derive(Debug, PartialEq)]
pub(crate) enum Lookup {
    /// A valid entry: the value as the reader's snapshot resolves it.
    Hit(Value),
    /// An entry whose dependencies changed in the reader's snapshot.
    Stale,
    /// No entry, or one resolved after the reader's position.
    Miss,
}

/// One shard: surrogate → attribute → (value, position it was resolved at,
/// deps).
type Shard = HashMap<Surrogate, HashMap<Box<str>, (Value, u64, Deps)>>;

/// Default shard count for [`ShardedResCache`] (rounded up to a power of
/// two). Sixteen shards keep contention negligible for the thread counts
/// the E13 sweep covers while costing nothing measurable at one thread.
pub const DEFAULT_RESOLUTION_CACHE_SHARDS: usize = 16;

/// A resolution value cache striped over N `RwLock`-guarded shards.
pub(crate) struct ShardedResCache {
    shards: Box<[RwLock<Shard>]>,
    /// `shards.len() - 1`; the count is always a power of two.
    mask: u64,
    enabled: AtomicBool,
}

impl ShardedResCache {
    /// Build a cache with `shards` stripes (clamped to ≥ 1, rounded up to
    /// the next power of two so shard selection is a mask, not a modulo).
    pub fn new(shards: usize) -> Self {
        let n = shards.max(1).next_power_of_two();
        ShardedResCache {
            shards: (0..n).map(|_| RwLock::new(Shard::default())).collect(),
            mask: (n - 1) as u64,
            enabled: AtomicBool::new(true),
        }
    }

    /// Number of shards (a power of two).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard `s` maps to. Fibonacci hashing scatters the sequential
    /// surrogates a store issues across shards instead of clustering them.
    #[inline]
    pub fn shard_of(&self, s: Surrogate) -> usize {
        ((s.0.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) & self.mask) as usize
    }

    /// Is caching currently enabled?
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Enable or disable the cache. Disabling is **atomic with respect to
    /// concurrent fills**: the flag is stored first, then every shard is
    /// cleared under its write lock. A fill that raced ahead of the flag
    /// store holds its shard lock while inserting, so the clear (which
    /// waits for that lock) removes the entry; a fill that acquires its
    /// shard lock after the clear re-reads the flag under the lock and
    /// aborts. Either way, when this returns no stale entry is readable
    /// and none can appear later.
    pub fn set_enabled(&self, enabled: bool) {
        self.enabled.store(enabled, Ordering::SeqCst);
        if !enabled {
            self.clear();
        }
    }

    /// Drop every entry in every shard. Used by the disable path and by
    /// [`crate::shared::SharedStore`]'s write-cycle rollback, whose
    /// mutation counter positions the next cycle reuses.
    pub fn clear(&self) {
        for shard in self.shards.iter() {
            shard.write().clear();
        }
    }

    /// The entry for `(obj, name)` as seen by a reader at position
    /// `reader_at`, taking only the owning shard's shared lock — concurrent
    /// hits on other shards never contend. An entry resolved after
    /// `reader_at` is a miss; one for which `unchanged(deps, resolved_at)`
    /// is false in the reader's snapshot is stale. Neither is removed: the
    /// reader's own fill replaces it.
    pub fn get(
        &self,
        obj: Surrogate,
        name: &str,
        reader_at: u64,
        unchanged: impl FnOnce(&Deps, u64) -> bool,
    ) -> Lookup {
        let shard = self.shards[self.shard_of(obj)].read();
        match shard.get(&obj).and_then(|per_obj| per_obj.get(name)) {
            Some((_, at, _)) if *at > reader_at => Lookup::Miss,
            // Resolved at the reader's own position: nothing has changed.
            Some((value, at, deps)) if *at == reader_at || unchanged(deps, *at) => {
                Lookup::Hit(value.clone())
            }
            Some(_) => Lookup::Stale,
            None => Lookup::Miss,
        }
    }

    /// Memoize `(obj, name) → value` as resolved at position `resolved_at`
    /// from `deps`. No-op when disabled (the flag is re-checked under the
    /// shard write lock, see [`Self::set_enabled`]) or when an entry resolved
    /// later is already present; an existing entry is overwritten in place.
    pub fn fill(&self, obj: Surrogate, name: &str, value: &Value, resolved_at: u64, deps: Deps) {
        let mut shard = self.shards[self.shard_of(obj)].write();
        if !self.enabled.load(Ordering::SeqCst) {
            return;
        }
        let per_obj = shard.entry(obj).or_default();
        let entry = (value.clone(), resolved_at, deps);
        match per_obj.get_mut(name) {
            Some((_, at, _)) if *at > resolved_at => {}
            Some(e) => *e = entry,
            None => {
                per_obj.insert(name.into(), entry);
            }
        }
    }

    /// Memoized entries per shard, one shard lock at a time.
    pub fn shard_lens(&self) -> Vec<usize> {
        let per_shard = self
            .shards
            .iter()
            .map(|s| s.read().values().map(HashMap::len).sum());
        per_shard.collect()
    }

    /// Total memoized entries. Snapshots one shard length at a time — no
    /// point during the sum is more than one shard lock held, so heavy
    /// read traffic on other shards proceeds unimpeded.
    pub fn len(&self) -> usize {
        self.shard_lens().into_iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;

    fn v(i: i64) -> Value {
        Value::Int(i)
    }

    /// A local value: its own object holds it.
    fn own() -> Deps {
        Deps::default()
    }

    fn always(_: &Deps, _: u64) -> bool {
        true
    }

    #[test]
    fn shard_count_rounds_up_to_power_of_two() {
        assert_eq!(ShardedResCache::new(0).shard_count(), 1);
        assert_eq!(ShardedResCache::new(1).shard_count(), 1);
        assert_eq!(ShardedResCache::new(3).shard_count(), 4);
        assert_eq!(ShardedResCache::new(16).shard_count(), 16);
        assert_eq!(ShardedResCache::new(17).shard_count(), 32);
    }

    #[test]
    fn fill_get_invalidate_roundtrip() {
        let c = ShardedResCache::new(4);
        assert_eq!(c.len(), 0);
        for i in 0..32u64 {
            c.fill(Surrogate(i), "A", &v(i as i64), 0, own());
            c.fill(Surrogate(i), "B", &v(-(i as i64)), 0, own());
        }
        assert_eq!(c.len(), 64);
        assert_eq!(c.shard_lens().len(), 4);
        assert_eq!(c.get(Surrogate(7), "A", 0, always), Lookup::Hit(v(7)));
        assert_eq!(c.get(Surrogate(7), "C", 0, always), Lookup::Miss);

        // A reader whose snapshot changed a dependency gets no value, and
        // the entry stays until that reader's fill replaces it.
        assert_eq!(c.get(Surrogate(7), "A", 3, |_, _| false), Lookup::Stale);
        assert_eq!(c.len(), 64);
        c.fill(Surrogate(7), "A", &v(70), 3, own());
        assert_eq!(c.get(Surrogate(7), "A", 3, always), Lookup::Hit(v(70)));
        assert_eq!(c.get(Surrogate(7), "B", 3, always), Lookup::Hit(v(-7)));
        assert_eq!(c.len(), 64, "a refill overwrites in place");
    }

    #[test]
    fn sequential_surrogates_scatter_across_shards() {
        let c = ShardedResCache::new(8);
        let mut seen = std::collections::HashSet::new();
        for i in 0..64u64 {
            seen.insert(c.shard_of(Surrogate(i)));
        }
        assert!(seen.len() >= 4, "only {} shards used", seen.len());
    }

    #[test]
    fn entries_from_the_future_are_invisible_to_old_readers() {
        let c = ShardedResCache::new(1);
        // A reader at position 5 fills a value.
        c.fill(Surrogate(1), "A", &v(50), 5, own());
        // A reader at the older position 4 must not see it; readers at or
        // after 5 do.
        assert_eq!(c.get(Surrogate(1), "A", 4, always), Lookup::Miss);
        assert_eq!(c.get(Surrogate(1), "A", 5, always), Lookup::Hit(v(50)));
        assert_eq!(c.get(Surrogate(1), "A", 9, always), Lookup::Hit(v(50)));
    }

    fn rels(d: &Deps) -> Option<Vec<Surrogate>> {
        d.rels().map(Iterator::collect)
    }

    #[test]
    fn the_validator_sees_the_entry_deps_and_position() {
        let c = ShardedResCache::new(1);
        let mut deps = Deps::default();
        deps.cross(Surrogate(2));
        deps.cross(Surrogate(4));
        c.fill(Surrogate(1), "A", &v(7), 6, deps);
        let seen = |d: &Deps, at: u64| {
            assert_eq!(rels(d), Some(vec![Surrogate(2), Surrogate(4)]));
            assert_eq!(at, 6);
            true
        };
        assert_eq!(c.get(Surrogate(1), "A", 8, seen), Lookup::Hit(v(7)));
        // At its own position an entry needs no check.
        let unasked = |_: &Deps, _: u64| unreachable!("validated at its own position");
        assert_eq!(c.get(Surrogate(1), "A", 6, unasked), Lookup::Hit(v(7)));
    }

    #[test]
    fn chains_deps_cannot_record_are_served_only_at_their_own_position() {
        let mut deep = Deps::default();
        for r in 1..=INLINE_RELS as u64 {
            deep.cross(Surrogate(r));
        }
        assert_eq!(rels(&deep).map(|r| r.len()), Some(INLINE_RELS));
        deep.cross(Surrogate(99));
        assert_eq!(rels(&deep), None, "one crossing too many");
        let mut wide = Deps::default();
        wide.cross(Surrogate(1 << 40));
        assert_eq!(rels(&wide), None, "a surrogate beyond 32 bits");
        assert_eq!(std::mem::size_of::<Deps>(), 8);
    }

    #[test]
    fn an_older_fill_never_replaces_a_newer_entry() {
        let c = ShardedResCache::new(1);
        c.fill(Surrogate(1), "B", &v(99), 9, own());
        // A reader pinned to an older snapshot resolves its own value and
        // tries to memoize it: the newer entry stays.
        c.fill(Surrogate(1), "B", &v(11), 8, own());
        assert_eq!(c.get(Surrogate(1), "B", 9, always), Lookup::Hit(v(99)));
        // Its own later reads miss rather than see the newer value.
        assert_eq!(c.get(Surrogate(1), "B", 8, always), Lookup::Miss);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn disable_is_atomic_with_concurrent_fills() {
        // Hammer fills while toggling the cache off; after every disable
        // returns, the cache must be observably empty (no resurrected
        // entry), which is exactly the double-check-under-lock contract.
        let c = Arc::new(ShardedResCache::new(4));
        thread::scope(|scope| {
            let filler = {
                let c = Arc::clone(&c);
                scope.spawn(move || {
                    for i in 0..10_000u64 {
                        c.fill(Surrogate(i % 64), "A", &v(i as i64), 0, own());
                    }
                })
            };
            for _ in 0..50 {
                c.set_enabled(false);
                assert_eq!(c.len(), 0, "entry survived or reappeared after disable");
                c.set_enabled(true);
            }
            filler.join().unwrap();
        });
        // Disable-then-clear leaves nothing behind after the churn.
        c.set_enabled(false);
        assert_eq!(c.len(), 0);
    }
}
