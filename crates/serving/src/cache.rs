//! Sharded LRU distance cache with poisoned-entry detection.
//!
//! Only rung-2 (exact leaf-LCA) answers are inserted, so a healthy hit
//! is always bit-identical to [`mte_core::frt::FrtTree::leaf_distance`].
//! Every probe re-checks the stored value: a non-finite payload —
//! whether from genuine memory corruption or an injected
//! `serve_cache_entry` `poison_nan` fault — is evicted on the spot and
//! reported as a `Probe::PoisonEvicted` miss, so a poisoned cache can
//! degrade throughput but never an answer.
//!
//! Each shard is an exact LRU in O(1) per operation: a slab of nodes
//! doubly linked from least to most recently used, a free list, and a
//! key → slot index. A probe or an insert does one index lookup and a
//! constant number of link updates under its shard lock.

use mte_faults::{check_for, check_handled, trigger_panic, FaultKind, FaultSite};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Mutex;

/// Outcome of a cache probe.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) enum Probe {
    /// A healthy entry; the cached exact distance.
    Hit(f64),
    /// The entry was present but carried a non-finite value; it has
    /// been evicted and the caller must recompute.
    PoisonEvicted,
    /// No entry.
    Miss,
}

/// Aggregated cache counters (monotone over the oracle's lifetime).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Healthy probe hits.
    pub hits: u64,
    /// Probes that found nothing.
    pub misses: u64,
    /// Probes that found a poisoned entry and evicted it.
    pub poison_evicted: u64,
    /// Entries currently resident across all shards.
    pub entries: usize,
}

/// The "no node" link.
const NIL: u32 = u32::MAX;

/// One slab node of a shard's LRU list.
#[derive(Clone, Copy, Debug)]
struct Node {
    key: u64,
    value: f64,
    /// Towards the least recently used end; `NIL` at the head.
    prev: u32,
    /// Towards the most recently used end; `NIL` at the tail. On a free
    /// node, the next free node.
    next: u32,
}

/// Fixed multiplicative hash for the key index: the folded 128-bit
/// product of the key and an odd constant, so the low bits the table
/// indexes by depend on every key bit (all keys of one shard share
/// their residue modulo the shard count).
#[derive(Default)]
struct KeyHasher(u64);

impl Hasher for KeyHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(self.0 ^ u64::from(b));
        }
    }

    fn write_u64(&mut self, key: u64) {
        let full = u128::from(key) * 0x9E37_79B9_7F4A_7C15;
        self.0 = full as u64 ^ (full >> 64) as u64;
    }
}

/// One shard: an exact LRU list over a slab of nodes, least recently
/// used at the head, with a key → slot index. Every operation is O(1);
/// the slab grows to at most the shard's capacity, and once it and the
/// index have reached their steady size no operation allocates.
#[derive(Debug)]
struct Shard {
    nodes: Vec<Node>,
    index: HashMap<u64, u32, BuildHasherDefault<KeyHasher>>, // analyze: ordered-ok(lookup only)
    head: u32,
    tail: u32,
    /// Head of the free list, threaded through `Node::next`.
    free: u32,
    hits: u64,
    misses: u64,
    poisoned: u64,
}

impl Shard {
    fn new() -> Shard {
        Shard {
            nodes: Vec::new(),
            index: HashMap::default(),
            head: NIL,
            tail: NIL,
            free: NIL,
            hits: 0,
            misses: 0,
            poisoned: 0,
        }
    }

    fn unlink(&mut self, slot: u32) {
        let Node { prev, next, .. } = self.nodes[slot as usize];
        match prev {
            NIL => self.head = next,
            p => self.nodes[p as usize].next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.nodes[n as usize].prev = prev,
        }
    }

    fn push_back(&mut self, slot: u32) {
        let tail = self.tail;
        let node = &mut self.nodes[slot as usize];
        node.prev = tail;
        node.next = NIL;
        match tail {
            NIL => self.head = slot,
            t => self.nodes[t as usize].next = slot,
        }
        self.tail = slot;
    }

    fn probe(&mut self, key: u64, poisoned: impl FnOnce() -> bool) -> Probe {
        let Some(&slot) = self.index.get(&key) else {
            self.misses += 1;
            return Probe::Miss;
        };
        let mut value = self.nodes[slot as usize].value;
        if poisoned() {
            value = f64::NAN;
        }
        if !value.is_finite() {
            self.unlink(slot);
            self.index.remove(&key);
            self.nodes[slot as usize].next = self.free;
            self.free = slot;
            self.poisoned += 1;
            return Probe::PoisonEvicted;
        }
        self.unlink(slot);
        self.push_back(slot);
        self.hits += 1;
        Probe::Hit(value)
    }

    fn insert(&mut self, key: u64, value: f64, capacity: usize) {
        if let Some(&slot) = self.index.get(&key) {
            self.nodes[slot as usize].value = value;
            self.unlink(slot);
            self.push_back(slot);
            return;
        }
        if capacity == 0 {
            // The entry would be its own least recently used victim.
            return;
        }
        let slot = if self.index.len() >= capacity {
            let victim = self.head;
            self.unlink(victim);
            self.index.remove(&self.nodes[victim as usize].key);
            victim
        } else if self.free != NIL {
            let slot = self.free;
            self.free = self.nodes[slot as usize].next;
            slot
        } else {
            // `capacity ≤ NIL`, so a fresh slot index is never `NIL`.
            self.nodes.push(Node {
                key,
                value,
                prev: NIL,
                next: NIL,
            });
            (self.nodes.len() - 1) as u32
        };
        let node = &mut self.nodes[slot as usize];
        node.key = key;
        node.value = value;
        self.push_back(slot);
        self.index.insert(key, slot);
    }
}

/// The sharded cache. Shard count and per-shard capacity are fixed at
/// construction; locking is per shard, so concurrent queries on
/// different shards never contend.
#[derive(Debug)]
pub(crate) struct ShardedCache {
    shards: Vec<Mutex<Shard>>,
    per_shard: usize,
}

/// Canonical unordered-pair key for vertices `u`, `v` of an
/// `n`-vertex artifact.
#[inline]
pub(crate) fn pair_key(u: u32, v: u32, n: usize) -> u64 {
    let (lo, hi) = if u <= v { (u, v) } else { (v, u) };
    lo as u64 * n as u64 + hi as u64
}

impl ShardedCache {
    /// A cache of `shards` shards (at least one) holding up to
    /// `per_shard` entries each (capped at `u32::MAX`, the slab's link
    /// range).
    pub(crate) fn new(shards: usize, per_shard: usize) -> ShardedCache {
        let shards = shards.max(1);
        ShardedCache {
            shards: (0..shards).map(|_| Mutex::new(Shard::new())).collect(),
            per_shard: per_shard.min(NIL as usize),
        }
    }

    fn shard(&self, key: u64) -> &Mutex<Shard> {
        &self.shards[(key % self.shards.len() as u64) as usize]
    }

    /// Locks a shard, recovering from a poisoned mutex: the guarded
    /// front-end already converted any panic into a typed error, and
    /// shard state is self-validating (every probe re-checks its
    /// entry), so the inner data is safe to reuse.
    fn lock(mutex: &Mutex<Shard>) -> std::sync::MutexGuard<'_, Shard> {
        match mutex.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// Probes for `key`.
    ///
    /// This is the `serve_cache_entry` fault site: every probe is an
    /// arrival. An injected `poison_nan` corrupts the probed entry
    /// *before* the health check runs — which is exactly what the
    /// poisoned-entry scan exists to absorb.
    pub(crate) fn probe(&self, key: u64) -> Probe {
        self.probe_with(key, || {
            check_handled(FaultSite::ServeCacheEntry, &[FaultKind::PoisonNan]).is_some()
        })
    }

    /// [`ShardedCache::probe`] with the poison decision passed in:
    /// `poisoned` runs only when `key` is resident, under the shard
    /// lock, and `true` corrupts the entry before the health check.
    pub(crate) fn probe_with(&self, key: u64, poisoned: impl FnOnce() -> bool) -> Probe {
        if check_for(FaultSite::ServeCacheEntry, &[FaultKind::Panic]).is_some() {
            trigger_panic(FaultSite::ServeCacheEntry);
        }
        ShardedCache::lock(self.shard(key)).probe(key, poisoned)
    }

    /// Inserts (or refreshes) `key → value` as the most recently used
    /// entry of its shard, evicting the least recently used one past
    /// `per_shard`. Non-finite values are refused outright — the cache
    /// only ever holds answers it could legitimately serve.
    pub(crate) fn insert(&self, key: u64, value: f64) {
        if !value.is_finite() {
            return;
        }
        ShardedCache::lock(self.shard(key)).insert(key, value, self.per_shard);
    }

    pub(crate) fn stats(&self) -> CacheStats {
        let mut out = CacheStats::default();
        for mutex in &self.shards {
            let shard = ShardedCache::lock(mutex);
            out.hits += shard.hits;
            out.misses += shard.misses;
            out.poison_evicted += shard.poisoned;
            out.entries += shard.index.len();
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The shard as it was before the slab LRU, kept verbatim as the
    /// reference model (poison decision passed in, as in
    /// [`ShardedCache::probe_with`]): a `Vec` in LRU order, most
    /// recently used at the back.
    #[derive(Debug, Default)]
    struct VecShard {
        entries: Vec<(u64, f64)>,
        hits: u64,
        misses: u64,
        poisoned: u64,
    }

    struct VecCache {
        shards: Vec<Mutex<VecShard>>,
        per_shard: usize,
    }

    impl VecCache {
        fn new(shards: usize, per_shard: usize) -> VecCache {
            let shards = shards.max(1);
            VecCache {
                shards: (0..shards)
                    .map(|_| Mutex::new(VecShard::default()))
                    .collect(),
                per_shard,
            }
        }

        fn shard(&self, key: u64) -> std::sync::MutexGuard<'_, VecShard> {
            let mutex = &self.shards[(key % self.shards.len() as u64) as usize];
            mutex.lock().unwrap_or_else(|p| p.into_inner())
        }

        fn probe(&self, key: u64, poisoned: impl FnOnce() -> bool) -> Probe {
            let mut shard = self.shard(key);
            let Some(idx) = shard.entries.iter().position(|&(k, _)| k == key) else {
                shard.misses += 1;
                return Probe::Miss;
            };
            let mut value = shard.entries[idx].1;
            if poisoned() {
                value = f64::NAN;
            }
            if !value.is_finite() {
                shard.entries.remove(idx);
                shard.poisoned += 1;
                return Probe::PoisonEvicted;
            }
            // LRU touch: move to the back.
            let entry = shard.entries.remove(idx);
            shard.entries.push(entry);
            shard.hits += 1;
            Probe::Hit(value)
        }

        fn insert(&self, key: u64, value: f64) {
            if !value.is_finite() {
                return;
            }
            let mut shard = self.shard(key);
            if let Some(idx) = shard.entries.iter().position(|&(k, _)| k == key) {
                shard.entries.remove(idx);
            }
            shard.entries.push((key, value));
            if shard.entries.len() > self.per_shard {
                shard.entries.remove(0);
            }
        }

        fn stats(&self) -> CacheStats {
            let mut out = CacheStats::default();
            for i in 0..self.shards.len() {
                let shard = self.shard(i as u64);
                out.hits += shard.hits;
                out.misses += shard.misses;
                out.poison_evicted += shard.poisoned;
                out.entries += shard.entries.len();
            }
            out
        }

        fn residency(&self) -> Vec<Vec<(u64, f64)>> {
            (0..self.shards.len())
                .map(|i| self.shard(i as u64).entries.clone())
                .collect()
        }
    }

    /// Each shard's entries from least to most recently used.
    fn residency(cache: &ShardedCache) -> Vec<Vec<(u64, f64)>> {
        let shards = cache.shards.iter().map(|m| ShardedCache::lock(m));
        shards
            .map(|shard| {
                let mut out = Vec::new();
                let mut slot = shard.head;
                while slot != NIL {
                    let node = shard.nodes[slot as usize];
                    out.push((node.key, node.value));
                    slot = node.next;
                }
                out
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Every probe result, the counters and each shard's LRU order
        /// equal the `Vec` reference's after every operation.
        #[test]
        fn slab_lru_matches_the_vec_reference(
            shards in prop_oneof![Just(1usize), Just(8usize)],
            per_shard in prop_oneof![
                Just(0usize), Just(1usize), Just(2usize), Just(7usize), Just(512usize)
            ],
            keys in prop_oneof![Just(4u64), Just(40u64), Just(1500u64)],
            ops in collection::vec((0u32..8, 0u64..1500), 0..1500),
        ) {
            let cache = ShardedCache::new(shards, per_shard);
            let reference = VecCache::new(shards, per_shard);
            for (i, &(op, key)) in ops.iter().enumerate() {
                let key = key % keys;
                match op {
                    // Probes; op 3 poisons a resident entry.
                    0..=3 => {
                        let poison = op == 3;
                        let got = cache.probe_with(key, || poison);
                        prop_assert_eq!(got, reference.probe(key, || poison));
                    }
                    // Inserts; op 7 offers a non-finite value.
                    _ => {
                        let value = match op {
                            7 => [f64::NAN, f64::INFINITY][i % 2],
                            _ => i as f64 + 0.5,
                        };
                        cache.insert(key, value);
                        reference.insert(key, value);
                    }
                }
                prop_assert_eq!(cache.stats(), reference.stats());
                prop_assert_eq!(residency(&cache), reference.residency());
                let slab = |m: &Mutex<Shard>| ShardedCache::lock(m).nodes.len();
                prop_assert!(cache.shards.iter().all(|m| slab(m) <= per_shard));
            }
        }
    }

    /// Four threads hammer one shard of capacity 8, so evictions are
    /// constant: every hit returns the value inserted for its key, every
    /// probe is counted once, and the shard never overfills. The audit's
    /// lock-free fast path runs beside it on every operation.
    #[test]
    fn concurrent_probes_and_inserts_keep_the_shard_consistent() {
        const THREADS: u64 = 4;
        const PROBES: u64 = 20_000;
        let value_of = |key: u64| key as f64 * 0.75 + 1.0;
        let cache = ShardedCache::new(1, 8);
        let start = std::sync::Barrier::new(THREADS as usize);
        std::thread::scope(|scope| {
            for t in 0..THREADS {
                let (cache, start) = (&cache, &start);
                scope.spawn(move || {
                    start.wait();
                    let mut state = 0x9E37_79B9_7F4A_7C15u64 ^ t;
                    for i in 0..PROBES {
                        let serial = mte_faults::fired_serial();
                        state = state
                            .wrapping_mul(6_364_136_223_846_793_005)
                            .wrapping_add(1_442_695_040_888_963_407);
                        let key = (state >> 33) % 24;
                        match cache.probe_with(key, || i % 97 == 0) {
                            Probe::Hit(v) => assert_eq!(v, value_of(key), "key {key}"),
                            Probe::Miss | Probe::PoisonEvicted => {
                                cache.insert(key, value_of(key));
                            }
                        }
                        assert!(cache.stats().entries <= 8);
                        assert_eq!(mte_faults::first_unhandled_on_thread_since(serial), None);
                    }
                });
            }
        });
        let stats = cache.stats();
        assert_eq!(
            stats.hits + stats.misses + stats.poison_evicted,
            THREADS * PROBES
        );
        assert!(stats.poison_evicted > 0 && stats.hits > 0);
        assert!(stats.entries <= 8);
    }

    #[test]
    fn lru_evicts_the_oldest_untouched_key() {
        let cache = ShardedCache::new(1, 2);
        cache.insert(1, 10.0);
        cache.insert(2, 20.0);
        // Touch key 1 so key 2 becomes the LRU victim.
        assert_eq!(cache.probe(1), Probe::Hit(10.0));
        cache.insert(3, 30.0);
        assert_eq!(cache.probe(2), Probe::Miss);
        assert_eq!(cache.probe(1), Probe::Hit(10.0));
        assert_eq!(cache.probe(3), Probe::Hit(30.0));
        let stats = cache.stats();
        assert_eq!(stats.entries, 2);
        assert_eq!(stats.hits, 3);
        assert_eq!(stats.misses, 1);
    }

    #[test]
    fn non_finite_values_never_enter() {
        let cache = ShardedCache::new(2, 4);
        cache.insert(7, f64::NAN);
        cache.insert(8, f64::INFINITY);
        assert_eq!(cache.probe(7), Probe::Miss);
        assert_eq!(cache.probe(8), Probe::Miss);
        assert_eq!(cache.stats().entries, 0);
    }

    #[test]
    fn pair_key_is_symmetric_and_injective_on_pairs() {
        let n = 9;
        assert_eq!(pair_key(3, 5, n), pair_key(5, 3, n));
        let mut seen = std::collections::HashSet::new();
        for u in 0..n as u32 {
            for v in u..n as u32 {
                assert!(seen.insert(pair_key(u, v, n)), "({u},{v}) collides");
            }
        }
    }
}
