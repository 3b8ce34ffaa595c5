//! Byte-budgeted block cache for out-of-core deployments.
//!
//! A [`BlockCache`] sits between a lazily backed index and its
//! container file: bucket loads go through [`BlockCache::get_or_load`],
//! which answers repeat requests from memory and evicts entries once
//! the byte budget is exceeded.
//!
//! ## Eviction policy
//!
//! Frequency-protected LRU: the victim is the entry with the fewest
//! lifetime hits, ties broken by recency. Pure LRU collapses on the
//! out-of-core workload's natural shape — query batches re-probing a
//! popular bucket set cyclically — because a cycle longer than the
//! budget flushes the entire cache every pass; protecting frequent
//! entries keeps the popular set resident and misses only the tail.
//! Hit counts are halved on an amortized schedule (every ~8 × capacity
//! operations per shard) so a once-hot entry decays and a shifted
//! workload takes over the budget instead of being locked out.
//!
//! ## Pinning invariant
//!
//! Values are handed out as `Arc<V>` clones. Eviction only drops the
//! cache's own reference, so a reader that obtained a bucket before an
//! eviction keeps scanning valid data — eviction can never invalidate
//! an in-flight search, it only affects what the *next* load finds
//! resident.
//!
//! ## Budget invariant
//!
//! The budget splits evenly across the shards and each shard upholds
//! `cached bytes ≤ shard budget` after every operation. An entry larger
//! than a whole shard's budget is returned to the caller but never
//! inserted (caching it would either break the invariant or evict the
//! entire shard for a value that cannot stay), so the cache's resident
//! footprint is bounded by the budget at all times; only values still
//! pinned by in-flight readers can transiently exceed it, and those
//! bytes are the readers', not the cache's.
//!
//! ## Loads run under the shard lock
//!
//! A key hashes to one shard, and a miss runs its loader while holding
//! that shard's lock. Concurrent loads of one key therefore collapse
//! into one read, but every other fetch that hashes to the shard — hit
//! or miss — waits until the load ends. A budget under twice
//! `MIN_SHARD_BUDGET` (64 MiB) is a single shard, so there all misses
//! are serialized with each other and with every hit. The shard count
//! adapts to the budget so that tiny budgets — like the
//! `PDX_CACHE_BYTES` eviction-churn CI leg — still get one meaningfully
//! sized LRU domain instead of sixteen degenerate ones.

use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Environment variable naming the default cache byte budget for
/// lazily opened containers (a number of bytes; `0` or empty disables
/// the override).
pub const CACHE_BYTES_ENV: &str = "PDX_CACHE_BYTES";

/// Resolves a cache byte budget: an explicit `requested` value wins,
/// otherwise the [`CACHE_BYTES_ENV`] environment override applies
/// (empty or unparsable values are ignored), otherwise `None` — the
/// caller's fully resident default.
pub fn resolve_cache_bytes(requested: Option<u64>) -> Option<u64> {
    if requested.is_some() {
        return requested;
    }
    match std::env::var(CACHE_BYTES_ENV) {
        Ok(v) => match v.trim() {
            "" => None,
            v => v.parse::<u64>().ok().filter(|&b| b > 0),
        },
        Err(_) => None,
    }
}

/// Counters describing a cache's traffic and footprint. All counts are
/// cumulative since the cache was created.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Loads answered from memory.
    pub hits: u64,
    /// Loads that had to read the backing store.
    pub misses: u64,
    /// Entries dropped to make room under the byte budget.
    pub evictions: u64,
    /// Bytes currently held by the cache (pinned-but-evicted values
    /// excluded — those belong to their readers).
    pub resident_bytes: u64,
    /// The configured byte budget.
    pub budget_bytes: u64,
}

struct Entry<V> {
    value: Arc<V>,
    bytes: u64,
    last_used: u64,
    /// Lifetime hits (decayed periodically); the eviction shield.
    uses: u32,
}

struct Shard<K, V> {
    map: HashMap<K, Entry<V>>,
    /// Monotone logical clock driving the LRU order.
    tick: u64,
    /// Bytes held by this shard (kept incrementally; the budget check
    /// must not rescan the map on every miss).
    used: u64,
    /// Tick at which the next frequency decay runs.
    decay_at: u64,
}

/// Sharded, byte-budgeted LRU cache over `Arc`-pinned values.
///
/// `K` is the bucket key (an index, an offset); `V` is the decoded
/// bucket. The loader passed to [`BlockCache::get_or_load`] reports the
/// value's byte weight, which is what the budget accounts.
pub struct BlockCache<K, V> {
    shards: Vec<Mutex<Shard<K, V>>>,
    shard_budget: u64,
    budget: u64,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    resident: AtomicU64,
}

impl<K, V> std::fmt::Debug for BlockCache<K, V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BlockCache")
            .field("shards", &self.shards.len())
            .field("budget_bytes", &self.budget)
            .field("resident_bytes", &self.resident.load(Ordering::Relaxed))
            .finish()
    }
}

/// Preferred minimum budget per shard. Splitting a budget across
/// shards loses capacity to imbalance — each shard evicts against its
/// own slice of the budget, so a popular key set that hashes unevenly
/// thrashes shards that a single domain would have absorbed. Large
/// shards keep that loss small; extra shards are only worth taking for
/// lock-contention relief once the budget is big.
const MIN_SHARD_BUDGET: u64 = 32 << 20;
/// Upper bound on the shard count (lock-contention relief plateaus).
const MAX_SHARDS: usize = 16;
/// Minimum operations between frequency decays of one shard.
const DECAY_PERIOD_FLOOR: u64 = 128;

impl<K: Hash + Eq + Clone, V> BlockCache<K, V> {
    /// Creates a cache with the given total byte budget. A zero budget
    /// is honored literally: every load misses and nothing is cached.
    pub fn new(budget_bytes: u64) -> Self {
        let shards = (budget_bytes / MIN_SHARD_BUDGET).clamp(1, MAX_SHARDS as u64) as usize;
        Self::with_shards(budget_bytes, shards)
    }

    /// [`BlockCache::new`] with an explicit shard count (tests pin it).
    ///
    /// # Panics
    /// Panics if `shards == 0`.
    pub fn with_shards(budget_bytes: u64, shards: usize) -> Self {
        assert!(shards > 0, "cache needs at least one shard");
        crate::obs::cache_metrics().budget_bytes.set(budget_bytes);
        Self {
            shards: (0..shards)
                .map(|_| {
                    Mutex::new(Shard {
                        map: HashMap::new(),
                        tick: 0,
                        used: 0,
                        decay_at: DECAY_PERIOD_FLOOR,
                    })
                })
                .collect(),
            shard_budget: budget_bytes / shards as u64,
            budget: budget_bytes,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            resident: AtomicU64::new(0),
        }
    }

    fn shard_of(&self, key: &K) -> &Mutex<Shard<K, V>> {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        key.hash(&mut h);
        &self.shards[(h.finish() % self.shards.len() as u64) as usize]
    }

    /// Whether `key` is resident right now, without touching the LRU
    /// order or the hit/miss counters. Prefetchers use this to decide
    /// what to load ahead of a scan; the answer is advisory — a
    /// concurrent eviction can falsify it before the caller acts.
    pub fn contains(&self, key: &K) -> bool {
        self.shard_of(key)
            .lock()
            .expect("cache shard lock")
            .map
            .contains_key(key)
    }

    /// Whether a value of `bytes` can be cached at all (it fits one
    /// shard's budget). Oversized values still load fine through
    /// [`BlockCache::get_or_load`] — they are just never retained, so
    /// prefetching them ahead of time is wasted work.
    pub fn admits(&self, bytes: u64) -> bool {
        bytes <= self.shard_budget
    }

    /// Returns the cached value for `key`, or runs `load`, caches the
    /// result if it fits the shard budget — evicting the
    /// least-frequently-used entries (ties broken by recency) as needed
    /// — and returns it.
    ///
    /// `load` runs under the shard lock: concurrent loads of one key
    /// collapse into one read, and every other fetch of the shard's keys
    /// waits for the load to end (see the module docs).
    ///
    /// # Errors
    /// Propagates the loader's error; nothing is cached on failure.
    pub fn get_or_load(
        &self,
        key: &K,
        load: impl FnOnce() -> io::Result<(V, u64)>,
    ) -> io::Result<Arc<V>> {
        let mut shard = self.shard_of(key).lock().expect("cache shard lock");
        shard.tick += 1;
        let tick = shard.tick;
        if tick >= shard.decay_at {
            for e in shard.map.values_mut() {
                // Halve with a floor of 1: order among hot entries is
                // preserved, stale ones drift to the eviction frontier.
                e.uses -= e.uses / 2;
            }
            shard.decay_at = tick + (8 * shard.map.len() as u64).max(DECAY_PERIOD_FLOOR);
        }
        if let Some(entry) = shard.map.get_mut(key) {
            entry.last_used = tick;
            entry.uses = entry.uses.saturating_add(1);
            self.hits.fetch_add(1, Ordering::Relaxed);
            crate::obs::cache_metrics().hits.inc();
            return Ok(Arc::clone(&entry.value));
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        crate::obs::cache_metrics().misses.inc();
        let (value, bytes) = load()?;
        let value = Arc::new(value);
        if bytes <= self.shard_budget {
            while shard.used + bytes > self.shard_budget {
                let victim = shard
                    .map
                    .iter()
                    .min_by_key(|(_, e)| (e.uses, e.last_used))
                    .map(|(k, _)| k.clone())
                    .expect("over budget implies a resident entry");
                let evicted = shard.map.remove(&victim).expect("victim is resident");
                shard.used -= evicted.bytes;
                self.resident.fetch_sub(evicted.bytes, Ordering::Relaxed);
                self.evictions.fetch_add(1, Ordering::Relaxed);
                let m = crate::obs::cache_metrics();
                m.evictions.inc();
                m.resident_bytes.sub(evicted.bytes);
            }
            shard.map.insert(
                key.clone(),
                Entry {
                    value: Arc::clone(&value),
                    bytes,
                    last_used: tick,
                    uses: 1,
                },
            );
            shard.used += bytes;
            self.resident.fetch_add(bytes, Ordering::Relaxed);
            crate::obs::cache_metrics().resident_bytes.add(bytes);
        }
        Ok(value)
    }

    /// Current traffic counters and footprint.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            resident_bytes: self.resident.load(Ordering::Relaxed),
            budget_bytes: self.budget,
        }
    }

    /// The configured total byte budget.
    pub fn budget_bytes(&self) -> u64 {
        self.budget
    }

    /// Bytes currently cached (see [`CacheStats::resident_bytes`]).
    pub fn resident_bytes(&self) -> u64 {
        self.resident.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn load(v: u32, bytes: u64) -> impl FnOnce() -> io::Result<(u32, u64)> {
        move || Ok((v, bytes))
    }

    #[test]
    fn hits_and_misses_count() {
        let cache: BlockCache<u32, u32> = BlockCache::with_shards(1024, 1);
        assert_eq!(*cache.get_or_load(&1, load(10, 100)).unwrap(), 10);
        assert_eq!(*cache.get_or_load(&1, load(99, 100)).unwrap(), 10);
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.evictions), (1, 1, 0));
        assert_eq!(s.resident_bytes, 100);
    }

    #[test]
    fn lru_eviction_respects_budget_and_recency() {
        let cache: BlockCache<u32, u32> = BlockCache::with_shards(250, 1);
        cache.get_or_load(&1, load(1, 100)).unwrap();
        cache.get_or_load(&2, load(2, 100)).unwrap();
        // Touch 1 so 2 becomes the LRU victim.
        cache.get_or_load(&1, load(1, 100)).unwrap();
        cache.get_or_load(&3, load(3, 100)).unwrap();
        let s = cache.stats();
        assert_eq!(s.evictions, 1);
        assert!(s.resident_bytes <= 250);
        // 2 was evicted; 1 and 3 still hit.
        assert_eq!(cache.stats().hits, 1);
        cache.get_or_load(&1, load(0, 100)).unwrap();
        cache.get_or_load(&3, load(0, 100)).unwrap();
        assert_eq!(cache.stats().hits, 3);
        cache.get_or_load(&2, load(2, 100)).unwrap();
        assert_eq!(cache.stats().hits, 3, "2 must have been evicted");
    }

    #[test]
    fn oversized_entries_bypass_the_cache() {
        let cache: BlockCache<u32, u32> = BlockCache::with_shards(100, 1);
        cache.get_or_load(&1, load(1, 50)).unwrap();
        let v = cache.get_or_load(&2, load(2, 500)).unwrap();
        assert_eq!(*v, 2);
        let s = cache.stats();
        // The oversized value was returned but not cached, and the
        // resident entry was not evicted for it.
        assert_eq!(s.resident_bytes, 50);
        assert_eq!(s.evictions, 0);
        cache.get_or_load(&1, load(1, 50)).unwrap();
        assert_eq!(cache.stats().hits, 1);
    }

    #[test]
    fn pinned_values_survive_eviction() {
        let cache: BlockCache<u32, Vec<u8>> = BlockCache::with_shards(100, 1);
        let pinned = cache.get_or_load(&1, || Ok((vec![7u8; 10], 100))).unwrap();
        cache.get_or_load(&2, || Ok((vec![8u8; 10], 100))).unwrap();
        assert_eq!(cache.stats().evictions, 1);
        // The Arc still reads the original bytes after eviction.
        assert!(pinned.iter().all(|&b| b == 7));
    }

    #[test]
    fn loader_errors_cache_nothing() {
        let cache: BlockCache<u32, u32> = BlockCache::with_shards(100, 1);
        let err = cache
            .get_or_load(&1, || Err::<(u32, u64), _>(io::Error::other("boom")))
            .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::Other);
        assert_eq!(cache.stats().resident_bytes, 0);
        assert_eq!(cache.stats().misses, 1);
    }

    #[test]
    fn zero_budget_never_caches() {
        let cache: BlockCache<u32, u32> = BlockCache::new(0);
        cache.get_or_load(&1, load(1, 1)).unwrap();
        cache.get_or_load(&1, load(1, 1)).unwrap();
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.resident_bytes), (0, 2, 0));
    }

    #[test]
    fn shard_count_adapts_to_budget() {
        assert_eq!(BlockCache::<u32, u32>::new(0).shards.len(), 1);
        assert_eq!(BlockCache::<u32, u32>::new(1 << 10).shards.len(), 1);
        // Mid-size budgets stay a single domain: splitting them loses
        // more capacity to shard imbalance than the lock relief is
        // worth.
        assert_eq!(BlockCache::<u32, u32>::new(24 << 20).shards.len(), 1);
        assert_eq!(BlockCache::<u32, u32>::new(256 << 20).shards.len(), 8);
        assert_eq!(BlockCache::<u32, u32>::new(1 << 30).shards.len(), 16);
    }

    #[test]
    fn frequent_entries_survive_cyclic_scans() {
        // Two slots; key 1 is hot, keys 2..=5 cycle. Pure LRU would
        // flush 1 every cycle; frequency protection keeps it resident.
        let cache: BlockCache<u32, u32> = BlockCache::with_shards(200, 1);
        cache.get_or_load(&1, load(1, 100)).unwrap();
        cache.get_or_load(&1, load(1, 100)).unwrap(); // uses = 2
        for round in 0..3 {
            for k in 2..=5u32 {
                cache.get_or_load(&k, load(k, 100)).unwrap();
            }
            let h0 = cache.stats().hits;
            cache.get_or_load(&1, load(1, 100)).unwrap();
            assert_eq!(cache.stats().hits, h0 + 1, "round {round}: hot key evicted");
        }
    }

    #[test]
    fn frequency_decays_so_stale_entries_eventually_yield() {
        // Key 1 earns a high count, then never returns while keys
        // 2..=4 cycle through the other slot. The shield must decay:
        // after enough operations the stale entry is the victim.
        let cache: BlockCache<u32, u32> = BlockCache::with_shards(200, 1);
        for _ in 0..40 {
            cache.get_or_load(&1, load(1, 100)).unwrap();
        }
        for i in 0..16 * DECAY_PERIOD_FLOOR as u32 {
            cache.get_or_load(&(2 + i % 3), load(0, 100)).unwrap();
        }
        assert!(
            !cache.contains(&1),
            "stale hot entry must decay and yield the budget"
        );
    }

    #[test]
    fn contains_and_admits_peek_without_counting() {
        let cache: BlockCache<u32, u32> = BlockCache::with_shards(200, 1);
        assert!(!cache.contains(&1));
        cache.get_or_load(&1, load(1, 100)).unwrap();
        assert!(cache.contains(&1));
        assert!(!cache.contains(&2));
        let s = cache.stats();
        assert_eq!((s.hits, s.misses), (0, 1), "peeks must not count");
        assert!(cache.admits(200));
        assert!(!cache.admits(201));
        // A peek must not refresh recency: 1 is still the LRU victim.
        cache.get_or_load(&2, load(2, 100)).unwrap();
        cache.contains(&1);
        cache.get_or_load(&3, load(3, 100)).unwrap();
        assert!(!cache.contains(&1), "peek kept the LRU victim alive");
    }

    #[test]
    fn env_override_resolves() {
        // Explicit request wins regardless of the environment.
        assert_eq!(resolve_cache_bytes(Some(42)), Some(42));
    }
}
