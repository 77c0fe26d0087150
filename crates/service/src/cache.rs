//! The concurrent caches shared by the worker pool: the plan-shape fit
//! cache and the selectivity-estimate cache, both bounded by segmented-LRU
//! eviction.
//!
//! * [`SharedFitCache`] implements [`uaq_cost::FitCache`]: shape signature
//!   → (`Arc<Vec<NodeCostContext>>`, fit-signature → `Arc<NodeFits>`).
//! * [`SharedSelEstCache`] implements [`uaq_cost::SelEstCache`]: fully
//!   qualified instance key (shape + catalog + literals + sample
//!   fingerprint) → `SelEstimates`. A hit skips the sample pass entirely.
//!
//! Values are `Arc`-backed, so each lock is held only for the map probe —
//! never across a sample pass, a fit, or a prediction — and hits are a
//! pointer clone. Both caches are bit-transparent: everything a cached
//! value depends on is part of its key, so a hit returns exactly what a
//! fresh computation would produce.
//!
//! Eviction is segmented LRU (SLRU): new entries land in a probation
//! segment; a hit promotes to the protected segment (up to 4/5 of
//! capacity), whose overflow demotes its LRU member back to probation.
//! One-shot ad-hoc queries churn through probation without displacing
//! the recurring templates that earned protection — scan-resistant where
//! plain LRU is not, and unlike "reject new when full" it keeps caching
//! new templates once the cache has filled.

use crate::fault::{Fault, FaultInjector, FaultSite};
use crate::sync::{lock_recover_with, Published};
use std::borrow::Borrow;
use std::collections::{HashMap, VecDeque};
use std::hash::Hash;
use std::sync::{Arc, Mutex, MutexGuard};
use uaq_cost::{FitCache, FitSignature, NodeCostContext, NodeFits, SelEstCache};
use uaq_selest::SelEstimates;
use uaq_telemetry::{Counter, Registry};

/// Protected-segment share of capacity.
const PROTECTED_NUM: usize = 4;
const PROTECTED_DEN: usize = 5;

#[derive(Debug)]
struct Slot<V> {
    value: V,
    /// Stamp of the most recent touch; queue entries with older stamps are
    /// stale markers and get skipped.
    touch: u64,
    /// Lives in the protected segment.
    protected: bool,
}

/// A bounded map with segmented-LRU eviction. Recency is tracked with lazy
/// queues — a touch pushes a `(stamp, key)` marker and bumps the slot's
/// stamp, invalidating older markers — so every operation is amortized
/// O(1) with no intrusive list bookkeeping. Not thread-safe on its own;
/// the shared caches wrap it in a `Mutex`.
#[derive(Debug)]
pub(crate) struct EvictingMap<K: Hash + Eq + Clone, V> {
    capacity: usize,
    map: HashMap<K, Slot<V>>,
    /// Recency queues: `[probation, protected]`.
    queues: [VecDeque<(u64, K)>; 2],
    protected_len: usize,
    tick: u64,
    evictions: u64,
}

impl<K: Hash + Eq + Clone, V> EvictingMap<K, V> {
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity,
            map: HashMap::new(),
            queues: [VecDeque::new(), VecDeque::new()],
            protected_len: 0,
            tick: 0,
            evictions: 0,
        }
    }

    pub fn len(&self) -> usize {
        self.map.len()
    }

    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    pub fn contains<Q>(&self, key: &Q) -> bool
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        self.map.contains_key(key)
    }

    pub fn clear(&mut self) {
        self.map.clear();
        self.queues[0].clear();
        self.queues[1].clear();
        self.protected_len = 0;
    }

    /// Looks an entry up and records the touch, promoting it to the
    /// protected segment.
    pub fn get<Q>(&mut self, key: &Q) -> Option<&mut V>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        let owned = self.map.get_key_value(key).map(|(k, _)| k.clone())?;
        self.promote(&owned);
        self.stamp(owned);
        self.map.get_mut(key).map(|slot| &mut slot.value)
    }

    /// Looks an entry up without recording a touch or needing `&mut` —
    /// the snapshot builder reads entries through this without disturbing
    /// recency.
    pub fn peek<Q>(&self, key: &Q) -> Option<&V>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        self.map.get(key).map(|slot| &slot.value)
    }

    /// Iterates entries in arbitrary order, touching nothing.
    pub fn iter(&self) -> impl Iterator<Item = (&K, &V)> {
        self.map.iter().map(|(k, slot)| (k, &slot.value))
    }

    /// Looks an entry up **without** recording a touch. For fill paths
    /// (`put_*`): the request that computes a value already touched the
    /// entry on its lookup, and counting the fill as a second use would
    /// promote brand-new entries straight into the protected segment —
    /// exactly the scan resistance the segments exist to provide.
    pub fn peek_mut<Q>(&mut self, key: &Q) -> Option<&mut V>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        self.map.get_mut(key).map(|slot| &mut slot.value)
    }

    /// Inserts a new entry, evicting one when full. Returns false when the
    /// entry was rejected (capacity zero). The key must not already be
    /// present.
    pub fn try_insert(&mut self, key: K, value: V) -> bool {
        debug_assert!(!self.map.contains_key(&key), "insert of present key");
        if self.capacity == 0 {
            return false;
        }
        if self.map.len() >= self.capacity {
            self.evict_one();
            if self.map.len() >= self.capacity {
                return false;
            }
        }
        self.map.insert(
            key.clone(),
            Slot {
                value,
                touch: 0,
                protected: false,
            },
        );
        self.stamp(key);
        true
    }

    /// Moves a probation entry to the protected segment, demoting the
    /// protected LRU back to probation when the segment overflows.
    fn promote(&mut self, key: &K) {
        let protected_cap = self.capacity * PROTECTED_NUM / PROTECTED_DEN;
        if protected_cap == 0 {
            return;
        }
        let slot = self.map.get_mut(key).expect("promote of present key");
        if slot.protected {
            return;
        }
        slot.protected = true;
        self.protected_len += 1;
        while self.protected_len > protected_cap {
            // The just-promoted key has no marker in the protected queue
            // yet, so it can never demote itself here.
            match self.pop_valid(1) {
                Some(victim) => {
                    let s = self.map.get_mut(&victim).expect("popped key present");
                    s.protected = false;
                    self.protected_len -= 1;
                    // Demotion re-enters probation at the MRU end.
                    self.stamp(victim);
                }
                None => break,
            }
        }
    }

    /// Records a touch: bumps the slot stamp and pushes a fresh marker to
    /// the slot's segment queue.
    fn stamp(&mut self, key: K) {
        self.tick += 1;
        let slot = self.map.get_mut(&key).expect("stamp of present key");
        slot.touch = self.tick;
        let segment = slot.protected as usize;
        self.queues[segment].push_back((self.tick, key));
        // Lazy invalidation means stale markers accumulate; rebuild the
        // queue when they dominate (amortized O(1) per touch).
        if self.queues[segment].len() > 2 * self.map.len() + 8 {
            let map = &self.map;
            self.queues[segment].retain(|(stamp, k)| {
                map.get(k)
                    .is_some_and(|s| s.touch == *stamp && s.protected as usize == segment)
            });
        }
    }

    /// Pops queue markers until one still names its segment's live LRU.
    fn pop_valid(&mut self, segment: usize) -> Option<K> {
        while let Some((stamp, key)) = self.queues[segment].pop_front() {
            if let Some(slot) = self.map.get(&key) {
                if slot.touch == stamp && slot.protected as usize == segment {
                    return Some(key);
                }
            }
        }
        None
    }

    fn evict_one(&mut self) {
        // Probation first; an all-protected cache falls back to the
        // protected LRU.
        if let Some(key) = self.pop_valid(0).or_else(|| self.pop_valid(1)) {
            let slot = self.map.remove(&key).expect("victim present");
            if slot.protected {
                self.protected_len -= 1;
            }
            self.evictions += 1;
        }
    }
}

/// Hit/miss counters, cheap enough to keep always-on: each is a
/// [`uaq_telemetry::Counter`] (a relaxed atomic under the hood), detached
/// for standalone caches and registry-bound when the owning service
/// constructs the cache with [`SharedFitCache::instrumented`] — the same
/// cells then feed `PredictionService::telemetry()` with zero extra work
/// on the probe path.
#[derive(Debug, Default)]
struct Counters {
    context_hits: Counter,
    context_misses: Counter,
    fit_hits: Counter,
    fit_misses: Counter,
    poison_recoveries: Counter,
}

impl Counters {
    /// Counters registered under `uaq_cache_probes_total{cache,outcome}`
    /// and `uaq_cache_poison_recoveries_total{cache}`.
    fn registered(registry: &Registry) -> Self {
        let probe = |cache: &str, outcome: &str| {
            registry.counter(
                "uaq_cache_probes_total",
                &[("cache", cache), ("outcome", outcome)],
            )
        };
        Self {
            context_hits: probe("fit_context", "hit"),
            context_misses: probe("fit_context", "miss"),
            fit_hits: probe("fit", "hit"),
            fit_misses: probe("fit", "miss"),
            poison_recoveries: registry
                .counter("uaq_cache_poison_recoveries_total", &[("cache", "fit")]),
        }
    }
}

/// A point-in-time snapshot of the service's cache counters. The
/// `sel_*` fields belong to the selectivity-estimate cache and are zero on
/// a [`SharedFitCache::stats`] snapshot (the service merges both caches in
/// `PredictionService::cache_stats`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Plan-shape (context-level) hits: the `NodeCostContext`s were reused.
    pub context_hits: u64,
    pub context_misses: u64,
    /// Full-fit hits: the grid fits were skipped entirely.
    pub fit_hits: u64,
    pub fit_misses: u64,
    /// Selectivity-estimate hits: the sample pass was skipped entirely.
    pub sel_hits: u64,
    pub sel_misses: u64,
    /// Distinct plan shapes currently cached.
    pub shapes: usize,
    /// Distinct query instances currently held by the estimate cache.
    pub sel_entries: usize,
    /// Shapes evicted from the fit cache since startup.
    pub shape_evictions: u64,
    /// Instances evicted from the estimate cache since startup.
    pub sel_evictions: u64,
    /// Times a cache lock was found poisoned (a holder panicked) and
    /// recovered by invalidating the cache. Bit-transparency makes the
    /// invalidation conservatively correct: the next miss recomputes
    /// exactly what the dropped entries held. Sums both caches in the
    /// service's merged snapshot.
    pub poison_recoveries: u64,
}

impl CacheStats {
    /// Fraction of fit lookups that skipped the grid fits. NaN when no
    /// probe has happened — the same zero-denominator convention as the
    /// experiment crate's `violation_rate` ("no data" is not "0%"); render
    /// with a NaN-aware formatter (`n/a`), and clamp before exporting to
    /// a gauge so NaN never reaches the Prometheus text path.
    pub fn fit_hit_rate(&self) -> f64 {
        let total = self.fit_hits + self.fit_misses;
        if total == 0 {
            f64::NAN
        } else {
            self.fit_hits as f64 / total as f64
        }
    }

    /// Fraction of estimate lookups that skipped the sample pass. NaN on
    /// zero probes; see [`Self::fit_hit_rate`].
    pub fn sel_hit_rate(&self) -> f64 {
        let total = self.sel_hits + self.sel_misses;
        if total == 0 {
            f64::NAN
        } else {
            self.sel_hits as f64 / total as f64
        }
    }
}

struct ShapeEntry {
    contexts: Option<Arc<Vec<NodeCostContext>>>,
    fits: EvictingMap<FitSignature, Arc<NodeFits>>,
}

/// Bounds for the service caches.
#[derive(Debug, Clone, Copy)]
pub struct CacheConfig {
    /// Maximum distinct plan shapes held by the fit cache.
    pub max_shapes: usize,
    /// Maximum fit variants (distinct selectivity-distribution signatures)
    /// held per shape.
    pub max_fits_per_shape: usize,
    /// Maximum query instances (shape + literals + samples) held by the
    /// selectivity-estimate cache.
    pub max_sel_entries: usize,
    /// Requested shard count for both shared caches. The effective count
    /// is clamped so every shard keeps at least [`MIN_KEYS_PER_SHARD`]
    /// slots (tiny caches collapse to one shard and behave exactly like
    /// the unsharded PR 7 code, eviction order included).
    pub shards: usize,
}

impl Default for CacheConfig {
    fn default() -> Self {
        Self {
            max_shapes: 4096,
            max_fits_per_shape: 64,
            max_sel_entries: 16384,
            shards: DEFAULT_SHARDS,
        }
    }
}

/// Default requested shard count for the shared caches.
pub const DEFAULT_SHARDS: usize = 8;

/// Sharding is only worth its per-shard eviction state when shards stay
/// reasonably full; below this many slots per shard the cache collapses
/// toward one shard.
const MIN_KEYS_PER_SHARD: usize = 64;

/// Locked hits accumulated in a shard before its warm snapshot is
/// republished. The first hit after an empty snapshot publishes
/// immediately so a newly warm key reaches the lock-free path at once.
const PUBLISH_BATCH: usize = 4;

/// Shard count actually used for a cache of `capacity` total slots.
fn effective_shards(requested: usize, capacity: usize) -> usize {
    requested.max(1).min((capacity / MIN_KEYS_PER_SHARD).max(1))
}

/// FNV-1a over the key bytes — the shard router. Stable across platforms
/// and process runs (unlike `RandomState`), so a key's shard is a pure
/// function of the key and the shard count; the golden differential tests
/// lean on that.
fn shard_of(key: &str, shards: usize) -> usize {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in key.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    (h % shards as u64) as usize
}

/// Read-only copy of one shape's cached state, owned by a warm snapshot.
#[derive(Default)]
struct ShapeSnap {
    contexts: Option<Arc<Vec<NodeCostContext>>>,
    fits: HashMap<FitSignature, Arc<NodeFits>>,
}

/// An immutable published view of a fit shard's hot entries. Readers get
/// it via [`Published::load`] — a refcount bump, never the shard's map
/// lock — so a warm predict takes zero contended locks.
#[derive(Default)]
struct FitSnapshot {
    shapes: HashMap<String, ShapeSnap>,
}

/// One fit-cache shard: the mutable map behind its own mutex, plus the
/// lock-free-read warm snapshot. Lock order is map before snapshot slot;
/// snapshot loads take only the slot.
struct FitShard {
    map: Mutex<FitShardInner>,
    warm: Published<FitSnapshot>,
}

struct FitShardInner {
    map: EvictingMap<String, ShapeEntry>,
    /// Shapes that took a locked hit since the last publish — the
    /// candidates to add to the next snapshot.
    pending: Vec<String>,
    /// Shape count of the currently published snapshot (0 after clear or
    /// poison recovery, which is what forces an eager republish).
    snapshot_len: usize,
}

impl FitShardInner {
    fn invalidate(&mut self) {
        self.map.clear();
        self.pending.clear();
        self.snapshot_len = 0;
    }
}

/// Thread-safe fit cache, sharded by FNV-1a of the shape signature. Safe
/// to share across catalogs and predictor configs: the predictor keys
/// entries on (plan shape, catalog fingerprint) and fits additionally on
/// everything they depend on.
///
/// Each shard evicts independently (a hot shard can evict while a cold
/// one has room — the price of independent locks), and each publishes a
/// read-only snapshot of its hot entries so warm lookups bypass the map
/// lock entirely. Snapshots lag the map by design; bit-transparency means
/// a stale snapshot can only miss or serve the exact value a fresh
/// computation would produce, never a wrong one.
pub struct SharedFitCache {
    config: CacheConfig,
    shards: Vec<FitShard>,
    counters: Counters,
    injector: Option<Arc<dyn FaultInjector>>,
}

impl SharedFitCache {
    pub fn new(config: CacheConfig) -> Self {
        let n = effective_shards(config.shards, config.max_shapes);
        let per_shard = config.max_shapes.div_ceil(n);
        Self {
            config,
            shards: (0..n)
                .map(|_| FitShard {
                    map: Mutex::new(FitShardInner {
                        map: EvictingMap::new(per_shard),
                        pending: Vec::new(),
                        snapshot_len: 0,
                    }),
                    warm: Published::new(FitSnapshot::default()),
                })
                .collect(),
            counters: Counters::default(),
            injector: None,
        }
    }

    /// Test-only in spirit: wires a fault injector into the lookup paths
    /// ([`FaultSite::FitCacheProbe`]) so the chaos harness can poison the
    /// cache lock mid-probe and force misses. An inactive injector is
    /// dropped here. Call right after construction, before any probes.
    pub fn with_injector(mut self, injector: Arc<dyn FaultInjector>) -> Self {
        self.injector = injector.active().then_some(injector);
        self
    }

    /// Rebinds the probe counters onto `registry` (series
    /// `uaq_cache_probes_total{cache="fit"|"fit_context"}`). Call right
    /// after construction, before any probes — earlier counts stay on the
    /// detached cells and are lost.
    pub fn instrumented(mut self, registry: &Registry) -> Self {
        self.counters = Counters::registered(registry);
        self
    }

    /// The shard owning `shape`.
    fn shard(&self, shape: &str) -> &FitShard {
        &self.shards[shard_of(shape, self.shards.len())]
    }

    /// Locks one shard's map, recovering from poison by invalidating that
    /// shard (map, pending, and published snapshot): the panicking holder
    /// may have died mid-update, and bit-transparency makes
    /// drop-and-recompute always correct.
    fn lock_shard<'a>(&'a self, shard: &'a FitShard) -> MutexGuard<'a, FitShardInner> {
        lock_recover_with(&shard.map, &self.counters.poison_recoveries, |inner| {
            inner.invalidate();
            shard.warm.store(Arc::new(FitSnapshot::default()));
        })
    }

    /// Test-only seam: locks the shard owning `shape` (the poison tests
    /// hold this guard across a panic).
    #[cfg(test)]
    fn lock_map_for(&self, shape: &str) -> MutexGuard<'_, FitShardInner> {
        self.lock_shard(self.shard(shape))
    }

    /// Exposed for the service/tests: how many shards this cache runs.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    fn probe_fault(&self) -> Option<Fault> {
        self.injector
            .as_ref()
            .and_then(|i| i.inject(FaultSite::FitCacheProbe, usize::MAX))
    }

    /// Records a locked hit on `shape` and republishes the shard's warm
    /// snapshot when enough hits accumulated (or eagerly while the
    /// snapshot is empty). Skipped entirely when a fault injector is
    /// wired in: the chaos schedules predate snapshots and their replay
    /// determinism depends on every probe taking the locked path.
    fn note_warm_hit(&self, shard: &FitShard, inner: &mut FitShardInner, shape: &str) {
        if self.injector.is_some() {
            return;
        }
        if !inner.pending.iter().any(|p| p == shape) {
            inner.pending.push(shape.to_owned());
        }
        if inner.pending.len() >= PUBLISH_BATCH || inner.snapshot_len == 0 {
            self.publish_locked(shard, inner);
        }
    }

    /// Rebuilds and swaps in the shard's snapshot: previous snapshot keys
    /// plus pending hits, filtered to what the map still holds (so the
    /// snapshot size is bounded by the shard capacity).
    fn publish_locked(&self, shard: &FitShard, inner: &mut FitShardInner) {
        let prev = shard.warm.load();
        let mut shapes: HashMap<String, ShapeSnap> = HashMap::new();
        for key in prev.shapes.keys().chain(inner.pending.iter()) {
            if shapes.contains_key(key) {
                continue;
            }
            if let Some(entry) = inner.map.peek(key) {
                shapes.insert(
                    key.clone(),
                    ShapeSnap {
                        contexts: entry.contexts.clone(),
                        fits: entry
                            .fits
                            .iter()
                            .map(|(s, f)| (s.clone(), Arc::clone(f)))
                            .collect(),
                    },
                );
            }
        }
        inner.pending.clear();
        inner.snapshot_len = shapes.len();
        shard.warm.store(Arc::new(FitSnapshot { shapes }));
    }

    pub fn stats(&self) -> CacheStats {
        let (mut shapes, mut evictions) = (0, 0);
        for shard in &self.shards {
            let inner = self.lock_shard(shard);
            shapes += inner.map.len();
            evictions += inner.map.evictions();
        }
        CacheStats {
            context_hits: self.counters.context_hits.get(),
            context_misses: self.counters.context_misses.get(),
            fit_hits: self.counters.fit_hits.get(),
            fit_misses: self.counters.fit_misses.get(),
            shapes,
            shape_evictions: evictions,
            poison_recoveries: self.counters.poison_recoveries.get(),
            ..CacheStats::default()
        }
    }

    /// Drops every entry and every published snapshot (counters are
    /// retained).
    pub fn clear(&self) {
        for shard in &self.shards {
            let mut inner = self.lock_shard(shard);
            inner.invalidate();
            shard.warm.store(Arc::new(FitSnapshot::default()));
        }
    }

    fn empty_entry(&self) -> ShapeEntry {
        ShapeEntry {
            contexts: None,
            fits: EvictingMap::new(self.config.max_fits_per_shape),
        }
    }
}

impl Default for SharedFitCache {
    fn default() -> Self {
        Self::new(CacheConfig::default())
    }
}

impl FitCache for SharedFitCache {
    fn get_contexts(&self, shape: &str) -> Option<Arc<Vec<NodeCostContext>>> {
        let shard = self.shard(shape);
        // Warm path: the published snapshot, no map lock. Disabled under
        // a fault injector so chaos replays keep their locked-path
        // schedules.
        if self.injector.is_none() {
            if let Some(ctxs) = shard
                .warm
                .load()
                .shapes
                .get(shape)
                .and_then(|s| s.contexts.clone())
            {
                self.counters.context_hits.inc();
                return Some(ctxs);
            }
        }
        let mut inner = self.lock_shard(shard);
        let forced_miss = match self.probe_fault() {
            Some(Fault::ProbeMiss) => true,
            // A `Panic` fires while the guard is held, poisoning the
            // lock — the scenario `lock_shard` recovery exists for.
            Some(f) => {
                crate::fault::apply(f, FaultSite::FitCacheProbe);
                false
            }
            None => false,
        };
        let hit = if forced_miss {
            None
        } else {
            inner.map.get(shape).and_then(|e| e.contexts.clone())
        };
        if hit.is_some() {
            self.note_warm_hit(shard, &mut inner, shape);
        }
        drop(inner);
        match &hit {
            Some(_) => self.counters.context_hits.inc(),
            None => self.counters.context_misses.inc(),
        };
        hit
    }

    fn put_contexts(&self, shape: &str, contexts: &Arc<Vec<NodeCostContext>>) {
        let shard = self.shard(shape);
        let mut inner = self.lock_shard(shard);
        if let Some(entry) = inner.map.peek_mut(shape) {
            entry.contexts.get_or_insert_with(|| Arc::clone(contexts));
        } else {
            let mut entry = self.empty_entry();
            entry.contexts = Some(Arc::clone(contexts));
            inner.map.try_insert(shape.to_owned(), entry);
        }
    }

    fn get_fits(&self, shape: &str, sig: &FitSignature) -> Option<Arc<NodeFits>> {
        let shard = self.shard(shape);
        if self.injector.is_none() {
            if let Some(fits) = shard
                .warm
                .load()
                .shapes
                .get(shape)
                .and_then(|s| s.fits.get(sig).cloned())
            {
                self.counters.fit_hits.inc();
                return Some(fits);
            }
        }
        let mut inner = self.lock_shard(shard);
        let forced_miss = match self.probe_fault() {
            Some(Fault::ProbeMiss) => true,
            Some(f) => {
                crate::fault::apply(f, FaultSite::FitCacheProbe);
                false
            }
            None => false,
        };
        let hit = if forced_miss {
            None
        } else {
            inner
                .map
                .get(shape)
                .and_then(|e| e.fits.get(sig).map(|f| Arc::clone(f)))
        };
        if hit.is_some() {
            self.note_warm_hit(shard, &mut inner, shape);
        }
        drop(inner);
        match &hit {
            Some(_) => self.counters.fit_hits.inc(),
            None => self.counters.fit_misses.inc(),
        };
        hit
    }

    fn put_fits(&self, shape: &str, sig: &FitSignature, fits: &Arc<NodeFits>) {
        let shard = self.shard(shape);
        let mut inner = self.lock_shard(shard);
        if !inner.map.contains(shape) && !inner.map.try_insert(shape.to_owned(), self.empty_entry())
        {
            return;
        }
        if let Some(entry) = inner.map.peek_mut(shape) {
            if !entry.fits.contains(sig) {
                entry.fits.try_insert(sig.clone(), Arc::clone(fits));
            }
        }
    }
}

/// A point-in-time snapshot of [`SharedSelEstCache`]'s counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SelCacheStats {
    pub hits: u64,
    pub misses: u64,
    pub entries: usize,
    pub evictions: u64,
    /// Poisoned-lock recoveries (see [`CacheStats::poison_recoveries`]).
    pub poison_recoveries: u64,
}

/// One sel-cache shard; mirrors [`FitShard`].
struct SelShard {
    map: Mutex<SelShardInner>,
    warm: Published<HashMap<String, SelEstimates>>,
}

struct SelShardInner {
    map: EvictingMap<String, SelEstimates>,
    pending: Vec<String>,
    snapshot_len: usize,
}

impl SelShardInner {
    fn invalidate(&mut self) {
        self.map.clear();
        self.pending.clear();
        self.snapshot_len = 0;
    }
}

/// Thread-safe selectivity-estimate cache: fully qualified instance key →
/// [`SelEstimates`]. The key already encodes shape, catalog fingerprint,
/// literal key, sample fingerprint, and the aggregate-cardinality source
/// (built by `Predictor::predict_with_caches`), so one instance is safe to
/// share across catalogs, sample sets, and predictor configs.
///
/// Sharded by FNV-1a of the instance key, with a per-shard published
/// snapshot serving warm reads without the map lock — the same layout and
/// caveats as [`SharedFitCache`].
pub struct SharedSelEstCache {
    shards: Vec<SelShard>,
    hits: Counter,
    misses: Counter,
    poison_recoveries: Counter,
    injector: Option<Arc<dyn FaultInjector>>,
}

impl SharedSelEstCache {
    /// Holds up to `config.max_sel_entries` instances over
    /// `config.shards` shards (clamped exactly like [`SharedFitCache`]).
    pub fn new(config: CacheConfig) -> Self {
        let n = effective_shards(config.shards, config.max_sel_entries);
        let per_shard = config.max_sel_entries.div_ceil(n);
        Self {
            shards: (0..n)
                .map(|_| SelShard {
                    map: Mutex::new(SelShardInner {
                        map: EvictingMap::new(per_shard),
                        pending: Vec::new(),
                        snapshot_len: 0,
                    }),
                    warm: Published::new(HashMap::new()),
                })
                .collect(),
            hits: Counter::detached(),
            misses: Counter::detached(),
            poison_recoveries: Counter::detached(),
            injector: None,
        }
    }

    /// Wires a fault injector into the lookup path
    /// ([`FaultSite::SelCacheProbe`]); see [`SharedFitCache::with_injector`].
    pub fn with_injector(mut self, injector: Arc<dyn FaultInjector>) -> Self {
        self.injector = injector.active().then_some(injector);
        self
    }

    /// Rebinds the probe counters onto `registry` (series
    /// `uaq_cache_probes_total{cache="selest"}`); see
    /// [`SharedFitCache::instrumented`].
    pub fn instrumented(mut self, registry: &Registry) -> Self {
        let probe = |outcome: &str| {
            registry.counter(
                "uaq_cache_probes_total",
                &[("cache", "selest"), ("outcome", outcome)],
            )
        };
        self.hits = probe("hit");
        self.misses = probe("miss");
        self.poison_recoveries =
            registry.counter("uaq_cache_poison_recoveries_total", &[("cache", "selest")]);
        self
    }

    /// The shard owning `key`.
    fn shard(&self, key: &str) -> &SelShard {
        &self.shards[shard_of(key, self.shards.len())]
    }

    fn lock_shard<'a>(&'a self, shard: &'a SelShard) -> MutexGuard<'a, SelShardInner> {
        lock_recover_with(&shard.map, &self.poison_recoveries, |inner| {
            inner.invalidate();
            shard.warm.store(Arc::new(HashMap::new()));
        })
    }

    /// Test-only seam: locks the shard owning `key`.
    #[cfg(test)]
    fn lock_map_for(&self, key: &str) -> MutexGuard<'_, SelShardInner> {
        self.lock_shard(self.shard(key))
    }

    /// Exposed for the service/tests: how many shards this cache runs.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// See [`SharedFitCache::note_warm_hit`].
    fn note_warm_hit(&self, shard: &SelShard, inner: &mut SelShardInner, key: &str) {
        if self.injector.is_some() {
            return;
        }
        if !inner.pending.iter().any(|p| p == key) {
            inner.pending.push(key.to_owned());
        }
        if inner.pending.len() >= PUBLISH_BATCH || inner.snapshot_len == 0 {
            let prev = shard.warm.load();
            let mut snap: HashMap<String, SelEstimates> = HashMap::new();
            for k in prev.keys().chain(inner.pending.iter()) {
                if snap.contains_key(k) {
                    continue;
                }
                if let Some(est) = inner.map.peek(k) {
                    snap.insert(k.clone(), est.clone());
                }
            }
            inner.pending.clear();
            inner.snapshot_len = snap.len();
            shard.warm.store(Arc::new(snap));
        }
    }

    pub fn stats(&self) -> SelCacheStats {
        let (mut entries, mut evictions) = (0, 0);
        for shard in &self.shards {
            let inner = self.lock_shard(shard);
            entries += inner.map.len();
            evictions += inner.map.evictions();
        }
        SelCacheStats {
            hits: self.hits.get(),
            misses: self.misses.get(),
            entries,
            evictions,
            poison_recoveries: self.poison_recoveries.get(),
        }
    }

    /// Drops every entry and every published snapshot (counters are
    /// retained).
    pub fn clear(&self) {
        for shard in &self.shards {
            let mut inner = self.lock_shard(shard);
            inner.invalidate();
            shard.warm.store(Arc::new(HashMap::new()));
        }
    }
}

impl Default for SharedSelEstCache {
    fn default() -> Self {
        Self::new(CacheConfig::default())
    }
}

impl SelEstCache for SharedSelEstCache {
    fn get(&self, key: &str) -> Option<SelEstimates> {
        let shard = self.shard(key);
        // Warm path: the published snapshot, no map lock (disabled under
        // a fault injector — see `SharedFitCache`).
        if self.injector.is_none() {
            if let Some(est) = shard.warm.load().get(key).cloned() {
                self.hits.inc();
                return Some(est);
            }
        }
        let mut inner = self.lock_shard(shard);
        let forced_miss = match self
            .injector
            .as_ref()
            .and_then(|i| i.inject(FaultSite::SelCacheProbe, usize::MAX))
        {
            Some(Fault::ProbeMiss) => true,
            // Fires while the guard is held: a `Panic` poisons the lock.
            Some(f) => {
                crate::fault::apply(f, FaultSite::SelCacheProbe);
                false
            }
            None => false,
        };
        let hit = if forced_miss {
            None
        } else {
            inner.map.get(key).map(|e| e.clone())
        };
        if hit.is_some() {
            self.note_warm_hit(shard, &mut inner, key);
        }
        drop(inner);
        match &hit {
            Some(_) => self.hits.inc(),
            None => self.misses.inc(),
        };
        hit
    }

    fn put(&self, key: &str, estimates: &SelEstimates) {
        let shard = self.shard(key);
        let mut inner = self.lock_shard(shard);
        if !inner.map.contains(key) {
            inner.map.try_insert(key.to_owned(), estimates.clone());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uaq_stats::Normal;

    fn sig(mean: f64) -> FitSignature {
        FitSignature::new(8, &[Normal::new(mean, 0.01)])
    }

    fn fit_cache(max_shapes: usize) -> SharedFitCache {
        SharedFitCache::new(CacheConfig {
            max_shapes,
            ..CacheConfig::default()
        })
    }

    fn sel_cache(max_sel_entries: usize) -> SharedSelEstCache {
        SharedSelEstCache::new(CacheConfig {
            max_sel_entries,
            ..CacheConfig::default()
        })
    }

    #[test]
    fn contexts_round_trip_and_count() {
        let cache = SharedFitCache::default();
        assert!(cache.get_contexts("s1").is_none());
        let ctxs = Arc::new(Vec::new());
        cache.put_contexts("s1", &ctxs);
        assert!(cache.get_contexts("s1").is_some());
        let stats = cache.stats();
        assert_eq!(stats.context_hits, 1);
        assert_eq!(stats.context_misses, 1);
        assert_eq!(stats.shapes, 1);
    }

    #[test]
    fn fits_key_on_signature() {
        let cache = SharedFitCache::default();
        let fits = Arc::new(Vec::new());
        cache.put_fits("s1", &sig(0.5), &fits);
        assert!(cache.get_fits("s1", &sig(0.5)).is_some());
        assert!(cache.get_fits("s1", &sig(0.6)).is_none());
        assert!(cache.get_fits("s2", &sig(0.5)).is_none());
        assert!((cache.stats().fit_hit_rate() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn touched_shape_survives_eviction() {
        let cache = fit_cache(2);
        cache.put_contexts("a", &Arc::new(Vec::new()));
        cache.put_contexts("b", &Arc::new(Vec::new()));
        // Touch "a": it is promoted, so "b" is the probation LRU.
        assert!(cache.get_contexts("a").is_some());
        cache.put_contexts("c", &Arc::new(Vec::new()));
        assert!(cache.get_contexts("a").is_some(), "recently used survives");
        assert!(cache.get_contexts("b").is_none(), "probation LRU evicted");
        assert!(cache.get_contexts("c").is_some(), "new entry admitted");
        let stats = cache.stats();
        assert_eq!(stats.shapes, 2);
        assert_eq!(stats.shape_evictions, 1);
    }

    #[test]
    fn segmented_promotion_protects_hot_entries_from_a_scan() {
        // Capacity 5 ⇒ protected segment of 4. Promote two hot entries,
        // then stream one-shot keys through: the scan churns probation
        // while every protected entry survives.
        let mut m: EvictingMap<String, u32> = EvictingMap::new(5);
        assert!(m.try_insert("hot1".into(), 1));
        assert!(m.try_insert("hot2".into(), 2));
        m.get("hot1"); // promote
        m.get("hot2"); // promote
        for i in 0..50 {
            m.try_insert(format!("scan{i}"), i);
        }
        assert!(m.contains("hot1"), "protected entry flushed by scan");
        assert!(m.contains("hot2"), "protected entry flushed by scan");
        assert_eq!(m.len(), 5);
    }

    #[test]
    fn fill_paths_do_not_promote_new_shapes() {
        // Regression: the full miss sequence a service worker runs
        // (get_fits miss → get_contexts miss → put_contexts → put_fits)
        // must count as ONE use, not two — otherwise every one-shot shape
        // is promoted straight into the protected segment and an ad-hoc
        // burst demotes and flushes the genuinely hot templates.
        let cache = fit_cache(5);
        for hot in ["hot1", "hot2"] {
            cache.put_contexts(hot, &Arc::new(Vec::new()));
            assert!(cache.get_contexts(hot).is_some()); // a real reuse: promote
        }
        for i in 0..50 {
            let shape = format!("adhoc{i}");
            assert!(cache.get_fits(&shape, &sig(0.5)).is_none());
            assert!(cache.get_contexts(&shape).is_none());
            cache.put_contexts(&shape, &Arc::new(Vec::new()));
            cache.put_fits(&shape, &sig(0.5), &Arc::new(Vec::new()));
        }
        assert!(
            cache.get_contexts("hot1").is_some(),
            "ad-hoc burst must not flush a protected template"
        );
        assert!(cache.get_contexts("hot2").is_some());
        assert_eq!(cache.stats().shapes, 5);
    }

    #[test]
    fn segmented_protected_overflow_demotes_lru_protected() {
        // Capacity 5 ⇒ protected cap 4. Promote 5 entries; the first
        // promoted is demoted back to probation and becomes evictable.
        let mut m: EvictingMap<String, u32> = EvictingMap::new(5);
        for (i, k) in ["a", "b", "c", "d", "e"].iter().enumerate() {
            assert!(m.try_insert((*k).into(), i as u32));
        }
        for k in ["a", "b", "c", "d", "e"] {
            m.get(k); // promote in order; promoting e demotes a
        }
        // One insert evicts from probation — which now holds exactly "a".
        assert!(m.try_insert("f".into(), 9));
        assert!(!m.contains("a"), "demoted LRU-protected entry evicted");
        for k in ["b", "c", "d", "e"] {
            assert!(m.contains(k), "{k} should still be protected");
        }
    }

    #[test]
    fn capacity_zero_behaves_as_no_cache() {
        let cache = fit_cache(0);
        let fits = Arc::new(Vec::new());
        cache.put_contexts("s1", &Arc::new(Vec::new()));
        cache.put_fits("s1", &sig(0.5), &fits);
        assert!(cache.get_contexts("s1").is_none());
        assert!(cache.get_fits("s1", &sig(0.5)).is_none());
        let stats = cache.stats();
        assert_eq!(stats.shapes, 0);
        assert_eq!(stats.shape_evictions, 0);

        let sel = sel_cache(0);
        sel.put("k", &SelEstimates::from_vec(Vec::new()));
        assert!(uaq_cost::SelEstCache::get(&sel, "k").is_none());
        assert_eq!(sel.stats().entries, 0);
    }

    #[test]
    fn sel_cache_round_trips_shared_allocation() {
        let sel = SharedSelEstCache::default();
        let est = SelEstimates::from_vec(Vec::new());
        sel.put("k1", &est);
        let hit = uaq_cost::SelEstCache::get(&sel, "k1").expect("stored");
        assert!(hit.ptr_eq(&est), "hit must share the cached allocation");
        assert!(uaq_cost::SelEstCache::get(&sel, "k2").is_none());
        let stats = sel.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
        sel.clear();
        assert!(uaq_cost::SelEstCache::get(&sel, "k1").is_none());
        assert_eq!(sel.stats().entries, 0);
    }

    #[test]
    fn sel_cache_eviction_counts() {
        let sel = sel_cache(2);
        for k in ["a", "b", "c", "d"] {
            sel.put(k, &SelEstimates::from_vec(Vec::new()));
        }
        let stats = sel.stats();
        assert_eq!(stats.entries, 2);
        assert_eq!(stats.evictions, 2);
        assert!(uaq_cost::SelEstCache::get(&sel, "a").is_none());
        assert!(uaq_cost::SelEstCache::get(&sel, "d").is_some());
    }

    #[test]
    fn clear_retains_counters() {
        let cache = SharedFitCache::default();
        cache.put_contexts("s1", &Arc::new(Vec::new()));
        assert!(cache.get_contexts("s1").is_some());
        cache.clear();
        assert!(cache.get_contexts("s1").is_none());
        let stats = cache.stats();
        assert_eq!(stats.shapes, 0);
        assert_eq!(stats.context_hits, 1);
        assert_eq!(stats.context_misses, 1);
    }

    #[test]
    fn lazy_queue_compaction_keeps_memory_bounded() {
        // Capacity 2 ⇒ protected cap 1: alternating hits promote one key
        // and demote the other, so both segments take a marker per touch.
        let mut m: EvictingMap<&'static str, u32> = EvictingMap::new(2);
        m.try_insert("a", 1);
        m.try_insert("b", 2);
        for _ in 0..10_000 {
            m.get("a");
            m.get("b");
        }
        for queue in &m.queues {
            assert!(
                queue.len() <= 2 * m.len() + 8,
                "queue grew unboundedly: {}",
                queue.len()
            );
        }
    }

    #[test]
    fn poisoned_fit_cache_recovers_by_invalidating() {
        let cache = Arc::new(SharedFitCache::default());
        cache.put_contexts("s1", &Arc::new(Vec::new()));
        let poisoner = {
            let cache = Arc::clone(&cache);
            std::thread::spawn(move || {
                let _guard = cache.lock_map_for("s1");
                panic!("poison the cache lock");
            })
        };
        assert!(poisoner.join().is_err());
        // The next probe recovers: no panic, contents invalidated, counted.
        assert!(cache.get_contexts("s1").is_none());
        let stats = cache.stats();
        assert_eq!(stats.poison_recoveries, 1);
        assert_eq!(stats.shapes, 0);
        // And the cache is fully serviceable again.
        cache.put_contexts("s1", &Arc::new(Vec::new()));
        assert!(cache.get_contexts("s1").is_some());
        assert_eq!(
            cache.stats().poison_recoveries,
            1,
            "recovered once, not per lock"
        );
    }

    #[test]
    fn poisoned_sel_cache_recovers_by_invalidating() {
        let sel = Arc::new(SharedSelEstCache::default());
        sel.put("k", &SelEstimates::from_vec(Vec::new()));
        let poisoner = {
            let sel = Arc::clone(&sel);
            std::thread::spawn(move || {
                let _guard = sel.lock_map_for("k");
                panic!("poison the sel cache lock");
            })
        };
        assert!(poisoner.join().is_err());
        assert!(uaq_cost::SelEstCache::get(&*sel, "k").is_none());
        let stats = sel.stats();
        assert_eq!(stats.poison_recoveries, 1);
        assert_eq!(stats.entries, 0);
        sel.put("k", &SelEstimates::from_vec(Vec::new()));
        assert!(uaq_cost::SelEstCache::get(&*sel, "k").is_some());
    }

    #[test]
    fn injected_probe_miss_forces_misses_without_corrupting_contents() {
        struct AlwaysMiss;
        impl crate::fault::FaultInjector for AlwaysMiss {
            fn inject(&self, _site: FaultSite, _worker: usize) -> Option<Fault> {
                Some(Fault::ProbeMiss)
            }
        }
        let cache = SharedFitCache::default().with_injector(Arc::new(AlwaysMiss));
        cache.put_contexts("s1", &Arc::new(Vec::new()));
        assert!(cache.get_contexts("s1").is_none(), "probe forced to miss");
        assert_eq!(cache.stats().shapes, 1, "the entry itself is intact");

        let sel = sel_cache(64).with_injector(Arc::new(AlwaysMiss));
        sel.put("k", &SelEstimates::from_vec(Vec::new()));
        assert!(uaq_cost::SelEstCache::get(&sel, "k").is_none());
        assert_eq!(sel.stats().entries, 1);
    }

    #[test]
    fn inactive_injector_is_dropped_at_construction() {
        let cache = SharedFitCache::default().with_injector(Arc::new(crate::fault::NoFaults));
        assert!(cache.injector.is_none(), "inactive injector adds no probes");
        cache.put_contexts("s1", &Arc::new(Vec::new()));
        assert!(cache.get_contexts("s1").is_some());
    }

    #[test]
    fn instrumented_caches_count_into_the_registry() {
        let registry = Registry::new();
        let cache = SharedFitCache::default().instrumented(&registry);
        let sel = SharedSelEstCache::default().instrumented(&registry);
        assert!(cache.get_contexts("s1").is_none());
        cache.put_contexts("s1", &Arc::new(Vec::new()));
        assert!(cache.get_contexts("s1").is_some());
        sel.put("k", &SelEstimates::from_vec(Vec::new()));
        assert!(uaq_cost::SelEstCache::get(&sel, "k").is_some());
        let snap = registry.snapshot();
        let probe = |cache: &str, outcome: &str| {
            snap.counter(
                "uaq_cache_probes_total",
                &[("cache", cache), ("outcome", outcome)],
            )
        };
        assert_eq!(probe("fit_context", "hit"), Some(1));
        assert_eq!(probe("fit_context", "miss"), Some(1));
        assert_eq!(probe("selest", "hit"), Some(1));
        // The same cells back `stats()` — no second bookkeeping path.
        assert_eq!(cache.stats().context_hits, 1);
        assert_eq!(sel.stats().hits, 1);
    }

    #[test]
    fn concurrent_access_is_consistent() {
        let cache = Arc::new(SharedFitCache::default());
        std::thread::scope(|scope| {
            for t in 0..8 {
                let cache = Arc::clone(&cache);
                scope.spawn(move || {
                    for i in 0..200 {
                        let shape = format!("shape-{}", i % 10);
                        let s = sig((t * 200 + i) as f64 / 4000.0);
                        if cache.get_fits(&shape, &s).is_none() {
                            cache.put_fits(&shape, &s, &Arc::new(Vec::new()));
                        }
                        cache.put_contexts(&shape, &Arc::new(Vec::new()));
                        assert!(cache.get_contexts(&shape).is_some());
                    }
                });
            }
        });
        assert_eq!(cache.stats().shapes, 10);
    }

    #[test]
    fn hit_rates_are_nan_on_zero_probes() {
        // The unified zero-denominator convention: "no probes yet" is not
        // "0% hit rate" — it renders as n/a, matching violation_rate.
        let stats = CacheStats::default();
        assert!(stats.fit_hit_rate().is_nan());
        assert!(stats.sel_hit_rate().is_nan());
        let one_miss = CacheStats {
            fit_misses: 1,
            sel_misses: 1,
            ..CacheStats::default()
        };
        assert_eq!(one_miss.fit_hit_rate(), 0.0, "a real 0% stays 0%");
        assert_eq!(one_miss.sel_hit_rate(), 0.0);
    }

    #[test]
    fn shard_counts_follow_capacity_clamp() {
        assert_eq!(SharedFitCache::default().shard_count(), DEFAULT_SHARDS);
        assert_eq!(fit_cache(2).shard_count(), 1);
        assert_eq!(fit_cache(0).shard_count(), 1);
        assert_eq!(SharedSelEstCache::default().shard_count(), DEFAULT_SHARDS);
        assert_eq!(sel_cache(2).shard_count(), 1);
        let three = CacheConfig {
            shards: 3,
            ..CacheConfig::default()
        };
        assert_eq!(SharedSelEstCache::new(three).shard_count(), 3);
        // Routing is deterministic and in range for every shard count.
        for shards in 1..=16 {
            let a = shard_of("shape-a", shards);
            assert!(a < shards);
            assert_eq!(a, shard_of("shape-a", shards), "routing is stable");
        }
    }

    #[test]
    fn warm_snapshot_serves_after_a_locked_hit_without_the_map_lock() {
        let cache = SharedFitCache::default();
        let ctxs = Arc::new(Vec::new());
        cache.put_contexts("s1", &ctxs);
        // First get: locked hit — publishes eagerly (snapshot was empty).
        assert!(cache.get_contexts("s1").is_some());
        // The snapshot now holds the shape: a warm read succeeds even
        // while another thread wedges the shard's map lock.
        let shard = cache.shard("s1");
        let _wedge = cache.lock_shard(shard);
        let snap = shard.warm.load();
        assert!(
            snap.shapes
                .get("s1")
                .and_then(|s| s.contexts.clone())
                .is_some(),
            "published snapshot must hold the warm shape"
        );
        assert!(
            Arc::ptr_eq(&snap.shapes["s1"].contexts.clone().unwrap(), &ctxs),
            "snapshot shares the cached allocation"
        );
    }

    #[test]
    fn sel_warm_snapshot_publishes_and_clear_invalidates_it() {
        let sel = SharedSelEstCache::default();
        let est = SelEstimates::from_vec(Vec::new());
        sel.put("k1", &est);
        assert!(uaq_cost::SelEstCache::get(&sel, "k1").is_some()); // publish
        let shard = sel.shard("k1");
        assert!(
            shard.warm.load().get("k1").is_some(),
            "snapshot published after first locked hit"
        );
        // A warm hit shares the cached allocation and counts as a hit.
        let hit = uaq_cost::SelEstCache::get(&sel, "k1").expect("warm hit");
        assert!(hit.ptr_eq(&est));
        assert_eq!(sel.stats().hits, 2);
        sel.clear();
        assert!(
            shard.warm.load().get("k1").is_none(),
            "clear must invalidate published snapshots too"
        );
        assert!(uaq_cost::SelEstCache::get(&sel, "k1").is_none());
    }

    #[test]
    fn poison_recovery_invalidates_the_published_snapshot() {
        let cache = Arc::new(SharedFitCache::default());
        cache.put_contexts("s1", &Arc::new(Vec::new()));
        assert!(cache.get_contexts("s1").is_some()); // publish snapshot
        let poisoner = {
            let cache = Arc::clone(&cache);
            std::thread::spawn(move || {
                let _guard = cache.lock_map_for("s1");
                panic!("poison the shard lock");
            })
        };
        assert!(poisoner.join().is_err());
        // Until someone takes the poisoned lock, the immutable snapshot
        // keeps serving — it was published before the panic, so its
        // values are exactly what a fresh computation would produce.
        assert!(
            cache.get_contexts("s1").is_some(),
            "pre-panic snapshot is still bit-correct"
        );
        // The next lock acquisition (stats locks every shard) runs
        // recovery, which must drop the snapshot along with the map.
        assert_eq!(cache.stats().poison_recoveries, 1);
        assert!(
            cache.get_contexts("s1").is_none(),
            "warm path must not outlive the poison invalidation"
        );
    }

    #[test]
    fn sharded_fit_cache_counts_consistently_across_shards() {
        // Spread keys across all shards; per-shard stats must aggregate.
        let cache = SharedFitCache::default();
        assert_eq!(cache.shard_count(), DEFAULT_SHARDS);
        for i in 0..64 {
            let shape = format!("shape-{i}");
            cache.put_contexts(&shape, &Arc::new(Vec::new()));
            assert!(cache.get_contexts(&shape).is_some());
        }
        let stats = cache.stats();
        assert_eq!(stats.shapes, 64);
        assert_eq!(stats.context_hits, 64);
        assert_eq!(stats.context_misses, 0);
    }
}
