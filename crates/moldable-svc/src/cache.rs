//! The service's response cache: a sharded, capacity-bounded LRU from
//! 128-bit keys to complete serialized response bodies.
//!
//! `/v1/solve` and `/v1/race` responses are pure functions of the request
//! body (no wall-clock fields, byte-deterministic serialization — pinned
//! by `tests/service_golden.rs`), so the app memoizes the *exact bytes*
//! it served under a hash of the endpoint and the raw body, and replays
//! them for a byte-identical repeat before any parsing (see
//! `App::body_memoized`).
//!
//! Structure: `shards` independent `Mutex<Shard>`s, selected by the key's
//! low bits, so concurrent workers rarely contend on one lock. Each shard
//! is a slab-backed intrusive doubly-linked LRU list plus a `HashMap`
//! index; eviction is strict per-shard LRU. The shards' capacities sum to
//! exactly the configured capacity, so total residency never exceeds it.
//! Counters (hits/misses/evictions) are process-wide atomics surfaced in
//! `/metrics`.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Sentinel for "no neighbor" in the intrusive list.
const NIL: usize = usize::MAX;

/// One LRU slab entry.
struct Entry {
    key: u128,
    body: Arc<str>,
    prev: usize,
    next: usize,
}

/// One shard: slab + index + list head/tail.
struct Shard {
    slab: Vec<Entry>,
    index: HashMap<u128, usize>,
    /// Most recently used.
    head: usize,
    /// Least recently used (eviction candidate).
    tail: usize,
    capacity: usize,
}

impl Shard {
    fn new(capacity: usize) -> Shard {
        Shard {
            slab: Vec::with_capacity(capacity),
            index: HashMap::with_capacity(capacity),
            head: NIL,
            tail: NIL,
            capacity,
        }
    }

    /// Unlink slot from the list (must currently be linked).
    fn unlink(&mut self, slot: usize) {
        let (prev, next) = (self.slab[slot].prev, self.slab[slot].next);
        match prev {
            NIL => self.head = next,
            p => self.slab[p].next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.slab[n].prev = prev,
        }
    }

    /// Link slot at the head (most recently used).
    fn link_front(&mut self, slot: usize) {
        self.slab[slot].prev = NIL;
        self.slab[slot].next = self.head;
        match self.head {
            NIL => self.tail = slot,
            h => self.slab[h].prev = slot,
        }
        self.head = slot;
    }

    fn get(&mut self, key: u128) -> Option<Arc<str>> {
        let slot = *self.index.get(&key)?;
        self.unlink(slot);
        self.link_front(slot);
        Some(Arc::clone(&self.slab[slot].body))
    }

    /// Insert or refresh; returns true when an entry was evicted. A
    /// zero-capacity shard stores nothing.
    fn insert(&mut self, key: u128, body: Arc<str>) -> bool {
        if self.capacity == 0 {
            return false;
        }
        if let Some(&slot) = self.index.get(&key) {
            // Same key ⇒ same bytes (responses are pure), but refresh
            // recency so repeated traffic keeps the entry warm.
            self.unlink(slot);
            self.link_front(slot);
            self.slab[slot].body = body;
            return false;
        }
        let mut evicted = false;
        let slot = if self.slab.len() < self.capacity {
            self.slab.push(Entry {
                key,
                body,
                prev: NIL,
                next: NIL,
            });
            self.slab.len() - 1
        } else {
            // Full: recycle the LRU tail slot in place.
            let slot = self.tail;
            self.unlink(slot);
            let old_key = self.slab[slot].key;
            self.index.remove(&old_key);
            self.slab[slot].key = key;
            self.slab[slot].body = body;
            evicted = true;
            slot
        };
        self.index.insert(key, slot);
        self.link_front(slot);
        evicted
    }
}

/// Sharded, capacity-bounded LRU keyed by 128-bit digests.
pub struct ResponseCache {
    shards: Vec<Mutex<Shard>>,
    /// Bitmask selecting the shard from the key's low bits.
    mask: u128,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl ResponseCache {
    /// A cache holding at most `capacity` entries total, spread over
    /// `shards` locks (rounded up to a power of two, at least 1, and cut
    /// to the largest power of two not above `capacity`, so every shard
    /// holds at least one entry). The shards' capacities sum to exactly
    /// `capacity`. A `capacity` of 0 still constructs and stores nothing;
    /// callers gate on capacity before building one.
    pub fn new(capacity: usize, shards: usize) -> ResponseCache {
        let most = 1 << capacity.max(1).ilog2();
        let shards = shards.max(1).next_power_of_two().min(most);
        let (base, extra) = (capacity / shards, capacity % shards);
        ResponseCache {
            shards: (0..shards)
                .map(|i| Mutex::new(Shard::new(base + usize::from(i < extra))))
                .collect(),
            mask: (shards - 1) as u128,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    #[inline]
    fn shard(&self, key: u128) -> &Mutex<Shard> {
        &self.shards[(key & self.mask) as usize]
    }

    /// Look up a serialized body; counts a hit or a miss.
    pub fn get(&self, key: u128) -> Option<Arc<str>> {
        let found = self
            .shard(key)
            .lock()
            .expect("cache shard poisoned")
            .get(key);
        match &found {
            Some(_) => self.hits.fetch_add(1, Ordering::Relaxed),
            None => self.misses.fetch_add(1, Ordering::Relaxed),
        };
        found
    }

    /// Store a serialized body under its key.
    pub fn insert(&self, key: u128, body: Arc<str>) {
        let evicted = self
            .shard(key)
            .lock()
            .expect("cache shard poisoned")
            .insert(key, body);
        if evicted {
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// `(hits, misses, evictions)` since construction.
    pub fn counters(&self) -> (u64, u64, u64) {
        (
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
            self.evictions.load(Ordering::Relaxed),
        )
    }

    /// Entries currently resident (sums shard sizes; for tests/metrics).
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("cache shard poisoned").index.len())
            .sum()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn body(s: &str) -> Arc<str> {
        Arc::from(s)
    }

    #[test]
    fn hit_miss_counters() {
        let cache = ResponseCache::new(8, 1);
        assert!(cache.get(1).is_none());
        cache.insert(1, body("a"));
        assert_eq!(cache.get(1).as_deref(), Some("a"));
        assert!(cache.get(2).is_none());
        assert_eq!(cache.counters(), (1, 2, 0));
    }

    #[test]
    fn evicts_least_recently_used() {
        let cache = ResponseCache::new(2, 1);
        cache.insert(1, body("a"));
        cache.insert(2, body("b"));
        // Touch 1 so 2 becomes the LRU victim.
        assert!(cache.get(1).is_some());
        cache.insert(3, body("c"));
        assert!(cache.get(2).is_none(), "LRU entry must be evicted");
        assert!(cache.get(1).is_some());
        assert!(cache.get(3).is_some());
        let (_, _, evictions) = cache.counters();
        assert_eq!(evictions, 1);
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn capacity_is_bounded_across_shards() {
        let cache = ResponseCache::new(16, 4);
        for k in 0..1000u128 {
            cache.insert(k, body("x"));
        }
        assert!(cache.len() <= 16, "len {} exceeds capacity", cache.len());
        let (_, _, evictions) = cache.counters();
        assert!(evictions >= 1000 - 16);
    }

    #[test]
    fn reinsert_refreshes_not_duplicates() {
        let cache = ResponseCache::new(4, 1);
        cache.insert(7, body("a"));
        cache.insert(7, body("a"));
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.counters().2, 0);
    }

    #[test]
    fn shards_round_up_to_power_of_two() {
        let cache = ResponseCache::new(12, 3);
        assert_eq!(cache.shards.len(), 4);
        // Spread keys over all shards; capacity still respected.
        for k in 0..100u128 {
            cache.insert(k, body("x"));
        }
        assert!(cache.len() <= 12);
    }

    /// Fill with many distinct keys and return how many stayed resident.
    fn residency_after_churn(capacity: usize, shards: usize) -> usize {
        let cache = ResponseCache::new(capacity, shards);
        for k in 0..1000u128 {
            cache.insert(k, body("x"));
        }
        cache.len()
    }

    #[test]
    fn two_entries_over_eight_shards_hold_two() {
        // Ceil-divided shards used to hold one entry each: 8 in all.
        assert_eq!(residency_after_churn(2, 8), 2);
    }

    #[test]
    fn ten_entries_over_eight_shards_hold_ten() {
        // Ceil-divided shards used to hold two entries each: 16 in all.
        assert_eq!(residency_after_churn(10, 8), 10);
    }

    #[test]
    fn zero_capacity_stores_nothing() {
        let cache = ResponseCache::new(0, 1);
        cache.insert(1, body("a"));
        assert!(cache.is_empty());
        assert!(cache.get(1).is_none());
        assert_eq!(cache.counters(), (0, 1, 0));
    }

    #[test]
    fn concurrent_access_is_safe() {
        let cache = Arc::new(ResponseCache::new(64, 8));
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let cache = Arc::clone(&cache);
                std::thread::spawn(move || {
                    for i in 0..500u128 {
                        let k = (t * 1000 + i) % 97;
                        cache.insert(k, Arc::from(format!("v{k}")));
                        if let Some(v) = cache.get(k) {
                            assert_eq!(&*v, &format!("v{k}"));
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert!(cache.len() <= 64);
    }
}
