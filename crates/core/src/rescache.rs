//! Lock-striped, version-stamped resolution value cache.
//!
//! The read path of the store is dominated by memoized [`crate::ObjectStore::attr`]
//! lookups; with a single `RwLock` around the whole memo table, every
//! concurrent cache hit still contends on one lock word. This module
//! stripes the table into N shards keyed by a surrogate hash, so hits on
//! different objects take different locks and scale with cores, while
//! invalidation sweeps lock **only the shards the affected closure maps
//! to** instead of the whole cache.
//!
//! Enable/disable semantics are atomic with respect to concurrent fills:
//! a fill re-checks the enabled flag *under its shard's write lock*, and
//! `set_enabled(false)` clears every shard under that same lock, so once
//! disable returns no entry exists and no in-flight fill can resurrect
//! one (see [`ShardedResCache::set_enabled`]).
//!
//! ## MVCC versioning
//!
//! Since the cache is shared across every live snapshot of a
//! [`crate::shared::SharedStore`] (it is a memo, not versioned state), two
//! stamps keep readers pinned to old snapshots from observing — or
//! poisoning — newer data:
//!
//! * every entry records the **store version it was computed at**; a reader
//!   only accepts entries stamped at or below its own snapshot version, so
//!   a value filled by the in-progress write cycle is invisible until that
//!   cycle publishes;
//! * every shard records an **invalidation watermark** — the highest
//!   version whose write-path sweep touched the shard; a fill stamped
//!   below the watermark is rejected, so a reader that resolved a value
//!   from an old snapshot *after* a newer write swept the shard cannot
//!   re-insert the stale value.
//!
//! A standalone (non-shared) store always runs at version 0, for which both
//! checks degenerate to the unversioned behavior.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};

use parking_lot::RwLock;

use crate::surrogate::Surrogate;
use crate::value::Value;

/// One shard: surrogate → attribute → (memoized resolved value, version it
/// was resolved at), plus the shard's invalidation watermark.
#[derive(Default)]
struct Shard {
    map: HashMap<Surrogate, HashMap<String, (Value, u64)>>,
    /// Highest store version whose invalidation sweep locked this shard.
    /// Fills stamped below it raced with a newer write and are rejected.
    watermark: u64,
}

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

    /// Drop every entry in every shard (watermarks are kept). Used by the
    /// disable path and by [`crate::shared::SharedStore`]'s write-cycle
    /// rollback, where fills made by the aborted cycle must not survive.
    pub fn clear(&self) {
        for shard in self.shards.iter() {
            shard.write().map.clear();
        }
    }

    /// Cached value for `(obj, name)` as seen from store version
    /// `reader_version`, taking only the owning shard's shared lock —
    /// concurrent hits on other shards never contend. Entries stamped
    /// above the reader's version (filled by a not-yet-published write
    /// cycle) are invisible.
    pub fn get(&self, obj: Surrogate, name: &str, reader_version: u64) -> Option<Value> {
        self.shards[self.shard_of(obj)]
            .read()
            .map
            .get(&obj)
            .and_then(|per_obj| per_obj.get(name))
            .filter(|(_, v)| *v <= reader_version)
            .map(|(value, _)| value.clone())
    }

    /// Memoize `(obj, name) → value` as resolved at store version
    /// `version`. No-op when disabled (the flag is re-checked under the
    /// shard write lock, see [`Self::set_enabled`]), when a newer write's
    /// invalidation already swept the shard (`version < watermark`), or
    /// when a newer-stamped entry is already present.
    pub fn fill(&self, obj: Surrogate, name: &str, value: &Value, version: u64) {
        let mut shard = self.shards[self.shard_of(obj)].write();
        if !self.enabled.load(Ordering::SeqCst) {
            return;
        }
        if version < shard.watermark {
            return;
        }
        let per_obj = shard.map.entry(obj).or_default();
        match per_obj.get(name) {
            Some((_, existing)) if *existing > version => {}
            _ => {
                per_obj.insert(name.to_string(), (value.clone(), version));
            }
        }
    }

    /// Drop the memoized entries of every surrogate in `closure` — all of
    /// them for `item: None`, only that attribute's for `Some(name)` — and
    /// raise each touched shard's watermark to `version` so stale re-fills
    /// from older snapshots are rejected afterwards, whether or not the
    /// shard held anything to drop. Locks only the shards the closure maps
    /// to, each exactly once; `closure` is reordered (grouped by shard in
    /// place, so the sweep allocates nothing). Returns
    /// `(entries_removed, shards_locked)`.
    pub fn invalidate(
        &self,
        closure: &mut [Surrogate],
        item: Option<&str>,
        version: u64,
    ) -> (u64, u64) {
        closure.sort_unstable_by_key(|s| self.shard_of(*s));
        let mut removed = 0u64;
        let mut locked = 0u64;
        let mut rest: &[Surrogate] = closure;
        while let Some(&first) = rest.first() {
            let idx = self.shard_of(first);
            let run = rest.iter().take_while(|s| self.shard_of(**s) == idx);
            let (members, tail) = rest.split_at(run.count());
            rest = tail;
            locked += 1;
            let mut shard = self.shards[idx].write();
            shard.watermark = shard.watermark.max(version);
            for s in members {
                match item {
                    Some(name) => {
                        if let Some(per_obj) = shard.map.get_mut(s) {
                            if per_obj.remove(name).is_some() {
                                removed += 1;
                            }
                            if per_obj.is_empty() {
                                shard.map.remove(s);
                            }
                        }
                    }
                    None => {
                        if let Some(per_obj) = shard.map.remove(s) {
                            removed += per_obj.len() as u64;
                        }
                    }
                }
            }
        }
        (removed, locked)
    }

    /// Total memoized entries. Snapshots one shard length at a time — no
    /// point during the sum is more than one shard lock held, so heavy
    /// read traffic on other shards proceeds unimpeded.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.read().map.values().map(HashMap::len).sum::<usize>())
            .sum()
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
            c.fill(Surrogate(i), "A", &v(i as i64), 0);
            c.fill(Surrogate(i), "B", &v(-(i as i64)), 0);
        }
        assert_eq!(c.len(), 64);
        assert_eq!(c.get(Surrogate(7), "A", 0), Some(v(7)));
        assert_eq!(c.get(Surrogate(7), "C", 0), None);

        // Attribute-scoped invalidation drops only that attribute.
        let (removed, locked) = c.invalidate(&mut [Surrogate(7)], Some("A"), 0);
        assert_eq!(removed, 1);
        assert_eq!(locked, 1);
        assert_eq!(c.get(Surrogate(7), "A", 0), None);
        assert_eq!(c.get(Surrogate(7), "B", 0), Some(v(-7)));

        // Whole-object invalidation drops everything for the closure.
        let mut all: Vec<Surrogate> = (0..32).map(Surrogate).collect();
        let (removed, locked) = c.invalidate(&mut all, None, 0);
        assert_eq!(removed, 63);
        assert!(locked <= 4);
        assert_eq!(c.len(), 0);
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
        // The in-progress write cycle (version 5) fills a value.
        c.fill(Surrogate(1), "A", &v(50), 5);
        // A reader pinned to the already-published version 4 must not see
        // it; readers at or after 5 do.
        assert_eq!(c.get(Surrogate(1), "A", 4), None);
        assert_eq!(c.get(Surrogate(1), "A", 5), Some(v(50)));
        assert_eq!(c.get(Surrogate(1), "A", 9), Some(v(50)));
    }

    #[test]
    fn watermark_rejects_stale_refills_and_keeps_newer_entries() {
        let c = ShardedResCache::new(1);
        // Write cycle 7 invalidates the object (value changed at v7).
        c.invalidate(&mut [Surrogate(1)], Some("A"), 7);
        // A reader still pinned to snapshot 3 resolved the old value from
        // its old snapshot and tries to memoize it: rejected.
        c.fill(Surrogate(1), "A", &v(30), 3);
        assert_eq!(c.get(Surrogate(1), "A", 3), None);
        assert_eq!(c.get(Surrogate(1), "A", 7), None);
        // The write cycle itself (or any reader at ≥ 7) may fill.
        c.fill(Surrogate(1), "A", &v(70), 7);
        assert_eq!(c.get(Surrogate(1), "A", 7), Some(v(70)));
        // An older-stamped fill never replaces a newer-stamped entry.
        c.fill(Surrogate(1), "A", &v(30), 7);
        c.fill(Surrogate(1), "B", &v(99), 9);
        c.fill(Surrogate(1), "B", &v(11), 8);
        assert_eq!(c.get(Surrogate(1), "B", 9), Some(v(99)));
        assert_eq!(c.len(), 2);
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
                        c.fill(Surrogate(i % 64), "A", &v(i as i64), 0);
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
