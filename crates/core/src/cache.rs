//! Canonical-instance caching primitives for the serve layer.
//!
//! `sap serve` answers repeated instances from a bounded cache instead
//! of re-running the solver portfolio. Two pieces live here because
//! they are pure data structures with no I/O: a streaming FNV-1a
//! fingerprint (the same idiom the rectpack MWIS memo uses for
//! hash-consing) and a small LRU map. Both are deterministic: the
//! fingerprint depends only on the fed bytes, and the LRU evicts by a
//! logical tick counter, never by wall clock, so a replayed request
//! stream produces the identical hit/miss/eviction sequence.

use std::collections::HashMap;
use std::hash::Hash;
use std::sync::Mutex;

/// Streaming 64-bit FNV-1a hasher.
///
/// Not cryptographic — collision resistance is "good enough for a
/// cache key" only. Callers that cannot tolerate collisions must store
/// the full key alongside the fingerprint (the serve cache keys on the
/// fingerprint plus solve parameters and accepts the residual risk, as
/// the PR4 memoization layer already does).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv1a(u64);

/// FNV-1a 64-bit offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64-bit prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

impl Fnv1a {
    /// A fresh hasher at the offset basis.
    pub fn new() -> Self {
        Fnv1a(FNV_OFFSET)
    }

    /// A fresh hasher at a caller-chosen basis. Two hashers with
    /// different bases form (near-)independent hash functions over the
    /// same byte stream — the serve cache uses a second keyed instance
    /// as a collision check on its primary fingerprint, so an FNV-1a
    /// collision in one stream does not alias in the other.
    pub fn with_basis(basis: u64) -> Self {
        Fnv1a(basis)
    }

    /// Feeds raw bytes.
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(FNV_PRIME);
        }
    }

    /// Feeds one `u64` in little-endian byte order.
    pub fn write_u64(&mut self, x: u64) {
        self.write_bytes(&x.to_le_bytes());
    }

    /// Feeds one `u64` as a single FNV step (one xor, one multiply): the
    /// word-wise variant for hot hash-set keys. It digests differently
    /// from [`Fnv1a::write_u64`], which feeds the eight bytes one by one.
    pub fn write_word(&mut self, w: u64) {
        self.0 = (self.0 ^ w).wrapping_mul(FNV_PRIME);
    }

    /// The current digest.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv1a {
    fn default() -> Self {
        Self::new()
    }
}

/// A bounded map with least-recently-used eviction.
///
/// Recency is a monotone logical tick bumped on every access, so the
/// eviction order is a pure function of the operation sequence. A
/// capacity of zero disables the cache entirely (every `insert` is a
/// no-op and every `get` misses), which gives callers a uniform "cache
/// off" switch.
#[derive(Debug)]
pub struct LruCache<K, V> {
    capacity: usize,
    tick: u64,
    slots: HashMap<K, Slot<V>>,
}

#[derive(Debug)]
struct Slot<V> {
    value: V,
    last_used: u64,
}

impl<K: Eq + Hash + Clone, V> LruCache<K, V> {
    /// An empty cache holding at most `capacity` entries.
    pub fn new(capacity: usize) -> Self {
        LruCache { capacity, tick: 0, slots: HashMap::new() }
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// The configured capacity (0 = caching disabled).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Advances the logical clock and returns the new tick.
    ///
    /// The eviction scan relies on `last_used` ticks being **unique**
    /// (a unique minimum makes the victim independent of hash iteration
    /// order), so the counter must never wrap or saturate into repeats.
    /// Near the ceiling the live ticks are renumbered 1..=len in their
    /// current recency order — a pure compaction that preserves the
    /// eviction order and restores headroom, keeping behaviour
    /// deterministic even after `u64::MAX` operations.
    fn next_tick(&mut self) -> u64 {
        if self.tick == u64::MAX {
            // lint:allow(n1) — sorted by the unique `last_used` tick
            // before use; hash iteration order cannot survive the sort.
            let mut order: Vec<K> = self.slots.keys().cloned().collect();
            order.sort_by_key(|k| self.slots.get(k).map_or(0, |s| s.last_used));
            for (rank, key) in order.iter().enumerate() {
                if let Some(slot) = self.slots.get_mut(key) {
                    slot.last_used = rank as u64 + 1;
                }
            }
            self.tick = self.slots.len() as u64;
        }
        self.tick = self.tick.saturating_add(1);
        self.tick
    }

    /// Looks up `key`, marking it most-recently-used on a hit.
    pub fn get(&mut self, key: &K) -> Option<&V> {
        let tick = self.next_tick();
        match self.slots.get_mut(key) {
            Some(slot) => {
                slot.last_used = tick;
                Some(&slot.value)
            }
            None => None,
        }
    }

    /// Inserts (or replaces) `key`, evicting the least-recently-used
    /// entry if the cache is full. Returns `true` iff an eviction
    /// happened.
    pub fn insert(&mut self, key: K, value: V) -> bool {
        if self.capacity == 0 {
            return false;
        }
        let tick = self.next_tick();
        if let Some(slot) = self.slots.get_mut(&key) {
            slot.value = value;
            slot.last_used = tick;
            return false;
        }
        let mut evicted = false;
        if self.slots.len() >= self.capacity {
            let victim = self
                .slots
                // lint:allow(n1) — `last_used` ticks are strictly
                // monotone, so min_by_key has a unique minimum and hash
                // iteration order cannot change the evicted key.
                .iter()
                .min_by_key(|(_, slot)| slot.last_used)
                .map(|(k, _)| k.clone());
            if let Some(victim) = victim {
                self.slots.remove(&victim);
                evicted = true;
            }
        }
        self.slots.insert(key, Slot { value, last_used: tick });
        evicted
    }
}

/// A sharded LRU: `N` independent [`LruCache`] shards, each behind its
/// own lock, with entries routed by `route % N` (the serve layer routes
/// by canonical instance fingerprint). Concurrent connections touching
/// different shards never contend, so cache traffic cannot serialize
/// the solve hot path.
///
/// Capacity is split `ceil(capacity / N)` per shard, so the **total**
/// capacity never rounds below the configured one (it may round up by
/// at most `N - 1` entries). A capacity of zero disables every shard,
/// preserving [`LruCache`]'s uniform "cache off" switch.
///
/// Recency and eviction stay per-shard deterministic: each shard keeps
/// its own logical tick, so for a fixed per-shard operation sequence
/// the hit/miss/eviction pattern is a pure function of that sequence.
/// Values are returned by clone — entries stay small (the serve layer
/// stores `Arc`-backed metadata next to the payload string).
#[derive(Debug)]
pub struct ShardedLru<K, V> {
    shards: Vec<Mutex<LruCache<K, V>>>,
}

impl<K: Eq + Hash + Clone, V: Clone> ShardedLru<K, V> {
    /// A cache of `capacity` total entries split over `shards` shards
    /// (`shards` is clamped to at least 1).
    pub fn new(capacity: usize, shards: usize) -> Self {
        let n = shards.max(1);
        let per_shard = if capacity == 0 { 0 } else { capacity.div_ceil(n) };
        ShardedLru {
            shards: (0..n).map(|_| Mutex::new(LruCache::new(per_shard))).collect(),
        }
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }


    /// Total live entries across all shards.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| Self::lock(s).len())
            .fold(0usize, usize::saturating_add)
    }

    /// Whether every shard is empty.
    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(|s| Self::lock(s).is_empty())
    }

    /// Live entries per shard, in shard order (telemetry: the hottest
    /// shard is `shard_lens().max()`).
    pub fn shard_lens(&self) -> Vec<usize> {
        self.shards.iter().map(|s| Self::lock(s).len()).collect()
    }

    /// A poisoned shard lock only means another thread panicked mid-
    /// operation; the shard data itself is always in a consistent state
    /// (LruCache never panics between linked updates), so recover the
    /// guard rather than poisoning the whole service.
    fn lock<'a>(shard: &'a Mutex<LruCache<K, V>>) -> std::sync::MutexGuard<'a, LruCache<K, V>> {
        match shard.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    fn shard_for(&self, route: u64) -> &Mutex<LruCache<K, V>> {
        let idx = (route % self.shards.len() as u64) as usize;
        &self.shards[idx]
    }

    /// Looks up `key` in the shard selected by `route`, marking it
    /// most-recently-used on a hit. Returns a clone of the value.
    pub fn get(&self, route: u64, key: &K) -> Option<V> {
        Self::lock(self.shard_for(route)).get(key).cloned()
    }

    /// Inserts (or replaces) `key` in the shard selected by `route`,
    /// evicting that shard's LRU entry if it is full. Returns `true`
    /// iff an eviction happened.
    pub fn insert(&self, route: u64, key: K, value: V) -> bool {
        Self::lock(self.shard_for(route)).insert(key, value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_matches_reference_vectors() {
        // Published FNV-1a 64 test vectors.
        let mut h = Fnv1a::new();
        assert_eq!(h.finish(), 0xcbf2_9ce4_8422_2325);
        h.write_bytes(b"a");
        assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
        let mut h2 = Fnv1a::new();
        h2.write_bytes(b"foobar");
        assert_eq!(h2.finish(), 0x85944171f73967e8);
    }

    #[test]
    fn fnv_u64_feed_is_order_sensitive() {
        let mut a = Fnv1a::new();
        a.write_u64(1);
        a.write_u64(2);
        let mut b = Fnv1a::new();
        b.write_u64(2);
        b.write_u64(1);
        assert_ne!(a.finish(), b.finish());
        // The word-wise step is one FNV round over the whole word.
        let mut w = Fnv1a::new();
        w.write_word(1);
        assert_eq!(w.finish(), (FNV_OFFSET ^ 1).wrapping_mul(FNV_PRIME));
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut cache: LruCache<u32, &str> = LruCache::new(2);
        assert!(!cache.insert(1, "one"));
        assert!(!cache.insert(2, "two"));
        // Touch 1 so 2 becomes the LRU victim.
        assert_eq!(cache.get(&1), Some(&"one"));
        assert!(cache.insert(3, "three"));
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.get(&2), None);
        assert_eq!(cache.get(&1), Some(&"one"));
        assert_eq!(cache.get(&3), Some(&"three"));
    }

    #[test]
    fn lru_replace_does_not_evict() {
        let mut cache: LruCache<u32, u32> = LruCache::new(1);
        assert!(!cache.insert(1, 10));
        assert!(!cache.insert(1, 20));
        assert_eq!(cache.get(&1), Some(&20));
        assert!(cache.insert(2, 30));
        assert_eq!(cache.get(&1), None);
    }

    #[test]
    fn zero_capacity_disables_cache() {
        let mut cache: LruCache<u32, u32> = LruCache::new(0);
        assert!(!cache.insert(1, 10));
        assert!(cache.is_empty());
        assert_eq!(cache.get(&1), None);
    }

    #[test]
    fn tick_ceiling_preserves_eviction_order() {
        // Start the logical clock one step below the ceiling: the next
        // operations must renumber instead of wrapping (debug overflow
        // panic) or saturating into duplicate ticks (nondeterministic
        // min_by_key victim).
        let mut cache: LruCache<u32, &str> =
            LruCache { capacity: 3, tick: u64::MAX - 1, slots: HashMap::new() };
        assert!(!cache.insert(1, "one")); // tick = MAX
        assert!(!cache.insert(2, "two")); // renumbers, then ticks
        assert!(!cache.insert(3, "three"));
        assert!(cache.tick < u64::MAX, "clock was compacted away from the ceiling");
        // Recency order must have survived the renumbering: touch 1 and
        // 3, leaving 2 as the unique LRU victim.
        assert_eq!(cache.get(&1), Some(&"one"));
        assert_eq!(cache.get(&3), Some(&"three"));
        assert!(cache.insert(4, "four"));
        assert_eq!(cache.get(&2), None, "the LRU entry is the victim at the ceiling");
        assert_eq!(cache.get(&1), Some(&"one"));
        assert_eq!(cache.get(&3), Some(&"three"));
        assert_eq!(cache.get(&4), Some(&"four"));
    }

    #[test]
    fn tick_ceiling_renumber_is_deterministic() {
        let run = || {
            let mut cache: LruCache<u64, u64> =
                LruCache { capacity: 4, tick: u64::MAX - 6, slots: HashMap::new() };
            let mut evictions = Vec::new();
            for i in 0..24u64 {
                let _ = cache.get(&(i % 6));
                evictions.push(cache.insert(i % 9, i));
            }
            evictions
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn keyed_basis_gives_an_independent_hash() {
        let mut a = Fnv1a::new();
        let mut b = Fnv1a::with_basis(FNV_OFFSET ^ 0x9e37_79b9_7f4a_7c15);
        a.write_bytes(b"same input");
        b.write_bytes(b"same input");
        assert_ne!(a.finish(), b.finish());
        // The default-basis constructor and with_basis(FNV_OFFSET) agree.
        let mut c = Fnv1a::with_basis(FNV_OFFSET);
        c.write_bytes(b"same input");
        let mut d = Fnv1a::new();
        d.write_bytes(b"same input");
        assert_eq!(c.finish(), d.finish());
    }

    /// Sum of the per-shard capacities.
    fn total_capacity(cache: &ShardedLru<u64, u64>) -> usize {
        cache.shards.iter().map(|s| ShardedLru::<u64, u64>::lock(s).capacity()).sum()
    }

    #[test]
    fn sharded_capacity_never_rounds_below_configured() {
        for capacity in [1usize, 2, 3, 7, 64, 100, 256, 1000] {
            for shards in [1usize, 2, 3, 5, 8, 16, 64] {
                let cache: ShardedLru<u64, u64> = ShardedLru::new(capacity, shards);
                assert_eq!(cache.shard_count(), shards);
                let total = total_capacity(&cache);
                assert!(
                    total >= capacity,
                    "capacity {capacity} over {shards} shards rounded down to {total}"
                );
                // And never rounds up by a whole extra shard's worth.
                assert!(total < capacity.saturating_add(shards));
            }
        }
    }

    #[test]
    fn sharded_zero_capacity_disables_every_shard() {
        let cache: ShardedLru<u64, u64> = ShardedLru::new(0, 8);
        assert!(!cache.insert(3, 3, 30));
        assert!(cache.is_empty());
        assert_eq!(cache.get(3, &3), None);
        assert_eq!(total_capacity(&cache), 0);
    }

    #[test]
    fn sharded_routes_by_modulo_and_keeps_shards_independent() {
        let cache: ShardedLru<u64, &str> = ShardedLru::new(8, 4);
        // Keys routed to shard 1 (route % 4 == 1) and shard 2.
        assert!(!cache.insert(1, 1, "one"));
        assert!(!cache.insert(5, 5, "five"));
        assert!(!cache.insert(2, 2, "two"));
        assert_eq!(cache.get(1, &1), Some("one"));
        assert_eq!(cache.get(5, &5), Some("five"));
        assert_eq!(cache.get(2, &2), Some("two"));
        // A key is only visible through its own route's shard.
        assert_eq!(cache.get(0, &1), None);
        assert_eq!(cache.len(), 3);
        let lens = cache.shard_lens();
        assert_eq!(lens.len(), 4);
        assert_eq!(lens.iter().sum::<usize>(), 3);
        assert_eq!(lens[1], 2, "routes 1 and 5 share shard 1");
    }

    #[test]
    fn sharded_clamps_zero_shards_to_one() {
        let cache: ShardedLru<u64, u64> = ShardedLru::new(4, 0);
        assert_eq!(cache.shard_count(), 1);
        assert!(!cache.insert(9, 9, 90));
        assert_eq!(cache.get(9, &9), Some(90));
    }

    #[test]
    fn sharded_eviction_is_per_shard_lru() {
        // Single shard of capacity 2 behaves exactly like LruCache.
        let cache: ShardedLru<u64, u64> = ShardedLru::new(2, 1);
        assert!(!cache.insert(1, 1, 10));
        assert!(!cache.insert(2, 2, 20));
        assert_eq!(cache.get(1, &1), Some(10)); // touch 1; 2 is LRU
        assert!(cache.insert(3, 3, 30));
        assert_eq!(cache.get(2, &2), None);
        assert_eq!(cache.get(1, &1), Some(10));
        assert_eq!(cache.get(3, &3), Some(30));
    }

    #[test]
    fn eviction_sequence_is_deterministic() {
        // Same operation sequence twice → same eviction pattern, even
        // though the backing store is a HashMap (the unique-min tick
        // picks the victim, not iteration order).
        let run = || {
            let mut cache: LruCache<u64, u64> = LruCache::new(3);
            let mut evictions = Vec::new();
            for i in 0..20u64 {
                let _ = cache.get(&(i % 5));
                evictions.push(cache.insert(i % 7, i));
            }
            evictions
        };
        assert_eq!(run(), run());
    }
}
