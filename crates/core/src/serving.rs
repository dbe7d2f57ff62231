//! Thread-safe serving front-end with memoization.
//!
//! In the paper's deployment, PKGM serves the *same* per-item vectors to many
//! downstream consumers (classification, alignment, recommendation all query
//! the items in their batches). Since service vectors are pure functions of
//! the frozen model, a small cache in front of [`KnowledgeService`] turns the
//! `O(k·d²)` relation-module matvecs into a hash lookup for hot items.
//!
//! The cache is **sharded**: items are distributed over up to
//! [`MAX_SHARDS`] independent `RwLock`-protected maps keyed by a
//! multiplicative hash of the item id. Hits take a single shard read lock
//! (shared, so concurrent readers never serialize); misses compute outside
//! any lock and take one shard write lock to publish. Counters are relaxed
//! atomics, so the hot path never contends on a global statistics lock.

use crate::service::{KnowledgeService, ServiceScratch};
use crate::snapshot::ServiceSnapshot;
use parking_lot::RwLock;
use pkgm_store::fxhash::{FxHashMap, FxHashSet};
use pkgm_store::EntityId;
use rayon::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Upper bound on cache shards; small caches use fewer so each shard still
/// holds a useful number of entries.
pub const MAX_SHARDS: usize = 16;

/// Items per rayon task when computing batch misses.
const MISS_CHUNK: usize = 32;

/// Cache statistics.
///
/// Every request bumps **exactly one** of `hits`/`misses`/`degraded`, so
/// [`CacheStats::total_requests`] is the number of requests whose counter
/// increment the reader observed. Counters are written with `Release` and
/// read with `Acquire` (see [`CachedService::stats`]), so a reader that is
/// ordered after a request — through any synchronizing edge, such as the
/// hot-swap quiesce in the serving daemon — is guaranteed to count it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Requests answered from the cache.
    pub hits: u64,
    /// Requests that computed fresh vectors.
    pub misses: u64,
    /// Entries evicted due to the capacity bound.
    pub evictions: u64,
    /// Requests answered with the documented fallback (unknown item id, or
    /// id beyond the model's embedding table). Counted separately from hits
    /// and misses so operators can alert on catalog/model skew.
    pub degraded: u64,
}

impl CacheStats {
    /// Requests observed: each bumps exactly one of hits/misses/degraded.
    pub fn total_requests(&self) -> u64 {
        self.hits + self.misses + self.degraded
    }

    /// Counts accumulated beyond an `earlier` snapshot of these counters
    /// (field-wise saturating difference) — how the serving daemon folds
    /// the increments that land between a hot-swap's stats snapshot and
    /// the retired generation's quiescence.
    pub fn since(&self, earlier: &CacheStats) -> CacheStats {
        CacheStats {
            hits: self.hits.saturating_sub(earlier.hits),
            misses: self.misses.saturating_sub(earlier.misses),
            evictions: self.evictions.saturating_sub(earlier.evictions),
            degraded: self.degraded.saturating_sub(earlier.degraded),
        }
    }
}

impl std::ops::AddAssign for CacheStats {
    /// Fold another generation's counters in — how the serving daemon
    /// accumulates stats across snapshot hot-swaps.
    fn add_assign(&mut self, rhs: CacheStats) {
        self.hits += rhs.hits;
        self.misses += rhs.misses;
        self.evictions += rhs.evictions;
        self.degraded += rhs.degraded;
    }
}

/// A cached sequence service (`2k` vectors) behind a shared pointer.
type SequenceVectors = Arc<Vec<Vec<f32>>>;
/// A cached condensed service (one `2d` vector) behind a shared pointer.
type CondensedVector = Arc<Vec<f32>>;

/// One cache shard: independent maps per service shape.
#[derive(Default)]
struct Shard {
    sequences: RwLock<FxHashMap<u32, SequenceVectors>>,
    condensed: RwLock<FxHashMap<u32, CondensedVector>>,
}

/// A memoizing, thread-safe wrapper around [`KnowledgeService`].
///
/// Eviction is per-shard whole-generation: when a shard reaches its share of
/// the capacity it is cleared (a "flush" cache). That keeps the hot path to
/// one hash probe with no LRU bookkeeping — appropriate for serving scans
/// where batches sweep items in waves — while sharding confines each flush
/// to `1/n_shards` of the cached entries.
pub struct CachedService {
    /// Shared, not owned: a serving daemon's every generation wraps the
    /// one model it loaded.
    inner: Arc<KnowledgeService>,
    /// Optional precomputed condensed table: misses whose id it covers are
    /// served by a row copy (or deterministic dequantization for quantized
    /// snapshots) instead of live matvecs. Sequence services always compute
    /// live — snapshots store only the condensed shape.
    snapshot: Option<ServiceSnapshot>,
    shards: Vec<Shard>,
    /// Capacity bound applied independently to each shard (per shape).
    shard_capacity: usize,
    /// Shared zero fallbacks, returned (not cached) for degraded requests.
    fallback_sequence: SequenceVectors,
    fallback_condensed: CondensedVector,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    degraded: AtomicU64,
}

impl CachedService {
    /// Wrap a service with a cache bounded to `capacity` items per shape.
    ///
    /// The shard count scales with capacity (one shard per four entries, up
    /// to [`MAX_SHARDS`]) so tiny caches keep their full capacity in a
    /// single shard.
    pub fn new(inner: impl Into<Arc<KnowledgeService>>, capacity: usize) -> Self {
        assert!(capacity > 0, "cache capacity must be positive");
        let inner = inner.into();
        let n_shards = (capacity / 4).clamp(1, MAX_SHARDS);
        let (d, k) = (inner.dim(), inner.k());
        Self {
            inner,
            snapshot: None,
            shards: (0..n_shards).map(|_| Shard::default()).collect(),
            shard_capacity: capacity / n_shards,
            fallback_sequence: Arc::new(vec![vec![0.0; d]; 2 * k]),
            fallback_condensed: Arc::new(vec![0.0; 2 * d]),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            degraded: AtomicU64::new(0),
        }
    }

    /// Wrap a service with a cache *and* a precomputed condensed table:
    /// condensed misses covered by `snapshot` skip the live matvecs
    /// entirely (dense row copy, or deterministic dequantization for
    /// quantized snapshots), turning the miss path into pure memory reads.
    pub fn with_snapshot(
        inner: impl Into<Arc<KnowledgeService>>,
        capacity: usize,
        snapshot: ServiceSnapshot,
    ) -> Self {
        let inner = inner.into();
        assert_eq!(
            snapshot.dim(),
            inner.dim(),
            "snapshot dim must match the service"
        );
        let mut cached = Self::new(inner, capacity);
        cached.snapshot = Some(snapshot);
        cached
    }

    /// The wrapped service.
    pub fn inner(&self) -> &KnowledgeService {
        &self.inner
    }

    /// The attached condensed-table snapshot, if any.
    pub fn snapshot(&self) -> Option<&ServiceSnapshot> {
        self.snapshot.as_ref()
    }

    /// Serve a condensed miss from the attached snapshot when it covers
    /// `id` (shard-aware); `false` means the caller must compute live.
    fn snapshot_condensed_into(&self, id: u32, out: &mut Vec<f32>) -> bool {
        match &self.snapshot {
            Some(snap) if snap.covers(id) => {
                snap.lookup_exact(EntityId(id), out);
                true
            }
            _ => false,
        }
    }

    /// Number of shards the cache was built with.
    pub fn n_shards(&self) -> usize {
        self.shards.len()
    }

    /// Fibonacci-style multiplicative hash: consecutive item ids (the common
    /// access pattern for catalog sweeps) land in different shards.
    fn shard_of(&self, item: u32) -> &Shard {
        let h = (item.wrapping_mul(0x9E37_79B1) >> 16) as usize;
        &self.shards[h % self.shards.len()]
    }

    /// True when `item` cannot be served from the model: the id is beyond
    /// the embedding table (indexing it would panic) or the selector has no
    /// key relations for it (an id the catalog never registered). Such
    /// requests get the documented zero fallback and bump
    /// [`CacheStats::degraded`] instead of panicking.
    fn is_degraded(&self, item: EntityId) -> bool {
        item.0 as usize >= self.inner.model().n_entities()
            || self.inner.selector().for_item(item).is_empty()
    }

    /// Cached sequence service (`2k` vectors, Fig. 2 shape).
    ///
    /// Unknown or out-of-range items return a shared all-zero fallback of
    /// the same shape and increment [`CacheStats::degraded`].
    pub fn sequence_service(&self, item: EntityId) -> Arc<Vec<Vec<f32>>> {
        if self.is_degraded(item) {
            self.degraded.fetch_add(1, Ordering::Release);
            return Arc::clone(&self.fallback_sequence);
        }
        let shard = self.shard_of(item.0);
        if let Some(hit) = shard.sequences.read().get(&item.0) {
            self.hits.fetch_add(1, Ordering::Release);
            return Arc::clone(hit);
        }
        self.misses.fetch_add(1, Ordering::Release);
        // Compute outside any lock; concurrent misses may compute twice,
        // which is benign (the function is pure).
        let fresh = Arc::new(self.inner.sequence_service(item));
        let mut map = shard.sequences.write();
        if !map.contains_key(&item.0) && map.len() >= self.shard_capacity {
            self.evictions
                .fetch_add(map.len() as u64, Ordering::Release);
            map.clear();
        }
        map.insert(item.0, Arc::clone(&fresh));
        fresh
    }

    /// Cached condensed service (`2d` vector, Fig. 3 shape).
    ///
    /// Unknown or out-of-range items return a shared all-zero fallback and
    /// increment [`CacheStats::degraded`].
    pub fn condensed_service(&self, item: EntityId) -> Arc<Vec<f32>> {
        if self.is_degraded(item) {
            self.degraded.fetch_add(1, Ordering::Release);
            return Arc::clone(&self.fallback_condensed);
        }
        let shard = self.shard_of(item.0);
        if let Some(hit) = shard.condensed.read().get(&item.0) {
            self.hits.fetch_add(1, Ordering::Release);
            return Arc::clone(hit);
        }
        self.misses.fetch_add(1, Ordering::Release);
        let mut v = Vec::new();
        let fresh = if self.snapshot_condensed_into(item.0, &mut v) {
            Arc::new(v)
        } else {
            Arc::new(self.inner.condensed_service(item))
        };
        self.publish_condensed(item.0, &fresh);
        fresh
    }

    fn publish_condensed(&self, key: u32, value: &Arc<Vec<f32>>) {
        let mut map = self.shard_of(key).condensed.write();
        if !map.contains_key(&key) && map.len() >= self.shard_capacity {
            self.evictions
                .fetch_add(map.len() as u64, Ordering::Release);
            map.clear();
        }
        map.insert(key, Arc::clone(value));
    }

    /// Cached sequence services for a batch, order preserved. Hits resolve
    /// with shard read locks; unique misses are computed in parallel, then
    /// published.
    pub fn sequence_service_batch(&self, items: &[EntityId]) -> Vec<Arc<Vec<Vec<f32>>>> {
        let mut out: Vec<Option<Arc<Vec<Vec<f32>>>>> = Vec::with_capacity(items.len());
        let mut missing: Vec<u32> = Vec::new();
        let mut seen = FxHashSet::default();
        for &item in items {
            if self.is_degraded(item) {
                self.degraded.fetch_add(1, Ordering::Release);
                out.push(Some(Arc::clone(&self.fallback_sequence)));
                continue;
            }
            let shard = self.shard_of(item.0);
            match shard.sequences.read().get(&item.0) {
                Some(hit) => {
                    self.hits.fetch_add(1, Ordering::Release);
                    out.push(Some(Arc::clone(hit)));
                }
                None => {
                    self.misses.fetch_add(1, Ordering::Release);
                    out.push(None);
                    if seen.insert(item.0) {
                        missing.push(item.0);
                    }
                }
            }
        }
        if !missing.is_empty() {
            let computed = self.compute_sequences(&missing);
            return fill_batch(out, items, &computed);
        }
        out.into_iter()
            .map(|s| s.expect("all slots resolved"))
            .collect()
    }

    fn compute_sequences(&self, missing: &[u32]) -> FxHashMap<u32, SequenceVectors> {
        let fresh: Vec<Vec<(u32, SequenceVectors)>> = missing
            .par_chunks(MISS_CHUNK)
            .map(|chunk| {
                chunk
                    .iter()
                    .map(|&id| (id, Arc::new(self.inner.sequence_service(EntityId(id)))))
                    .collect::<Vec<_>>()
            })
            .collect();
        let mut computed = FxHashMap::default();
        for (id, value) in fresh.into_iter().flatten() {
            let mut map = self.shard_of(id).sequences.write();
            if !map.contains_key(&id) && map.len() >= self.shard_capacity {
                self.evictions
                    .fetch_add(map.len() as u64, Ordering::Release);
                map.clear();
            }
            map.insert(id, Arc::clone(&value));
            drop(map);
            computed.insert(id, value);
        }
        computed
    }

    /// Cached condensed services for a batch, order preserved. Unique misses
    /// are computed in parallel with per-thread scratch buffers — unless
    /// the snapshot covers every one of them: a row copy costs tens of
    /// nanoseconds, far less than spawning the fan-out's threads, so such
    /// misses resolve on the calling thread.
    pub fn condensed_service_batch(&self, items: &[EntityId]) -> Vec<Arc<Vec<f32>>> {
        let mut out: Vec<Option<Arc<Vec<f32>>>> = Vec::with_capacity(items.len());
        let mut missing: Vec<u32> = Vec::new();
        let mut seen = FxHashSet::default();
        for &item in items {
            if self.is_degraded(item) {
                self.degraded.fetch_add(1, Ordering::Release);
                out.push(Some(Arc::clone(&self.fallback_condensed)));
                continue;
            }
            let shard = self.shard_of(item.0);
            match shard.condensed.read().get(&item.0) {
                Some(hit) => {
                    self.hits.fetch_add(1, Ordering::Release);
                    out.push(Some(Arc::clone(hit)));
                }
                None => {
                    self.misses.fetch_add(1, Ordering::Release);
                    out.push(None);
                    if seen.insert(item.0) {
                        missing.push(item.0);
                    }
                }
            }
        }
        if missing.is_empty() {
            return out
                .into_iter()
                .map(|s| s.expect("all slots resolved"))
                .collect();
        }
        let d = self.inner.dim();
        let resolve = |chunk: &[u32]| {
            let mut scratch = ServiceScratch::new(d);
            chunk
                .iter()
                .map(|&id| {
                    let mut v = vec![0.0f32; 2 * d];
                    if !self.snapshot_condensed_into(id, &mut v) {
                        self.inner
                            .condensed_service_into(EntityId(id), &mut scratch, &mut v);
                    }
                    (id, Arc::new(v))
                })
                .collect::<Vec<_>>()
        };
        let all_snapshot = self
            .snapshot
            .as_ref()
            .is_some_and(|snap| missing.iter().all(|&id| snap.covers(id)));
        let fresh: Vec<Vec<(u32, CondensedVector)>> = if all_snapshot {
            vec![resolve(&missing)]
        } else {
            missing.par_chunks(MISS_CHUNK).map(resolve).collect()
        };
        let mut computed = FxHashMap::default();
        for (id, value) in fresh.into_iter().flatten() {
            self.publish_condensed(id, &value);
            computed.insert(id, value);
        }
        fill_batch(out, items, &computed)
    }

    /// Snapshot of hit/miss/eviction/degraded counters.
    ///
    /// Increments are `Release` and these loads are `Acquire`, so any
    /// request whose completion is ordered before this call — e.g. every
    /// batch that finished before a hot-swap quiesced this generation —
    /// is guaranteed to be counted. Concurrent in-flight requests may or
    /// may not appear (they are still monotonic: a later read never shows
    /// less), which is why the serving daemon folds a retired
    /// generation's stats only after its last batch reference drops.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Acquire),
            misses: self.misses.load(Ordering::Acquire),
            evictions: self.evictions.load(Ordering::Acquire),
            degraded: self.degraded.load(Ordering::Acquire),
        }
    }
}

/// Resolve remaining `None` slots from the freshly computed map.
fn fill_batch<T>(
    slots: Vec<Option<Arc<T>>>,
    items: &[EntityId],
    computed: &FxHashMap<u32, Arc<T>>,
) -> Vec<Arc<T>> {
    slots
        .into_iter()
        .zip(items)
        .map(|(slot, item)| match slot {
            Some(v) => v,
            None => Arc::clone(&computed[&item.0]),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{PkgmConfig, PkgmModel};
    use pkgm_store::{KeyRelationSelector, StoreBuilder};

    fn service() -> KnowledgeService {
        let mut b = StoreBuilder::new();
        for i in 0..8u32 {
            b.add_raw(i, 0, 8 + i % 2);
            b.add_raw(i, 1, 10);
        }
        let store = b.build();
        let pairs: Vec<(EntityId, u32)> = (0..8).map(|i| (EntityId(i), 0)).collect();
        let sel = KeyRelationSelector::build(&store, &pairs, 1, 2);
        let model = PkgmModel::new(
            store.n_entities() as usize,
            store.n_relations() as usize,
            PkgmConfig::new(8).with_seed(1),
        );
        KnowledgeService::new(model, sel)
    }

    #[test]
    fn cache_returns_identical_vectors() {
        let cached = CachedService::new(service(), 16);
        let a = cached.sequence_service(EntityId(1));
        let b = cached.sequence_service(EntityId(1));
        assert_eq!(a, b);
        assert_eq!(*a, cached.inner().sequence_service(EntityId(1)));
        let stats = cached.stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 1);
    }

    #[test]
    fn cache_evicts_at_capacity() {
        let cached = CachedService::new(service(), 2);
        for i in 0..6u32 {
            cached.condensed_service(EntityId(i));
        }
        let stats = cached.stats();
        assert_eq!(stats.misses, 6);
        assert!(stats.evictions >= 2, "expected evictions, got {stats:?}");
        // correctness survives eviction
        let v = cached.condensed_service(EntityId(0));
        assert_eq!(*v, cached.inner().condensed_service(EntityId(0)));
    }

    #[test]
    fn cache_is_thread_safe() {
        use rayon::prelude::*;
        let cached = CachedService::new(service(), 64);
        let results: Vec<Arc<Vec<f32>>> = (0..64u32)
            .into_par_iter()
            .map(|i| cached.condensed_service(EntityId(i % 8)))
            .collect();
        for (i, r) in results.iter().enumerate() {
            assert_eq!(
                **r,
                cached.inner().condensed_service(EntityId(i as u32 % 8))
            );
        }
        let stats = cached.stats();
        assert_eq!(stats.hits + stats.misses, 64);
        assert!(stats.hits > 0);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        CachedService::new(service(), 0);
    }

    #[test]
    fn shard_count_scales_with_capacity() {
        let svc = service();
        assert_eq!(CachedService::new(svc.clone(), 1).n_shards(), 1);
        assert_eq!(CachedService::new(svc.clone(), 16).n_shards(), 4);
        assert_eq!(CachedService::new(svc, 8192).n_shards(), MAX_SHARDS);
    }

    #[test]
    fn batch_matches_per_item_and_counts_stats() {
        let cached = CachedService::new(service(), 64);
        let items: Vec<EntityId> = (0..8u32).chain(0..8u32).map(EntityId).collect();
        let cond = cached.condensed_service_batch(&items);
        let seq = cached.sequence_service_batch(&items);
        for (i, &item) in items.iter().enumerate() {
            assert_eq!(*cond[i], cached.inner().condensed_service(item));
            assert_eq!(*seq[i], cached.inner().sequence_service(item));
        }
        let stats = cached.stats();
        // Each shape saw 16 requests over 8 unique ids; duplicates within one
        // batch resolve from the computed set, counted as misses.
        assert_eq!(stats.hits + stats.misses, 32);
        assert!(stats.misses >= 16);
        // A second batch is all hits.
        let before = cached.stats().hits;
        cached.condensed_service_batch(&items);
        assert_eq!(cached.stats().hits, before + items.len() as u64);
    }

    #[test]
    fn unknown_items_get_fallback_and_degraded_counter() {
        let cached = CachedService::new(service(), 16);
        let d = cached.inner().dim();
        let k = cached.inner().k();
        // Out of embedding range entirely.
        let far = EntityId(u32::MAX);
        let v = cached.condensed_service(far);
        assert_eq!(v.len(), 2 * d);
        assert!(v.iter().all(|&x| x == 0.0));
        let seq = cached.sequence_service(far);
        assert_eq!(seq.len(), 2 * k);
        assert!(seq.iter().all(|row| row.iter().all(|&x| x == 0.0)));
        // In embedding range but never registered as an item (a value id).
        let value_entity = EntityId(9);
        cached.condensed_service(value_entity);
        let stats = cached.stats();
        assert_eq!(stats.degraded, 3);
        // Degraded requests are neither hits nor misses and are not cached.
        assert_eq!(stats.hits, 0);
        assert_eq!(stats.misses, 0);
    }

    #[test]
    fn batch_keeps_order_and_length_with_degraded_items() {
        let cached = CachedService::new(service(), 16);
        let items = [EntityId(0), EntityId(u32::MAX), EntityId(1), EntityId(9)];
        let cond = cached.condensed_service_batch(&items);
        assert_eq!(cond.len(), items.len());
        assert_eq!(*cond[0], cached.inner().condensed_service(items[0]));
        assert!(cond[1].iter().all(|&x| x == 0.0));
        assert_eq!(*cond[2], cached.inner().condensed_service(items[2]));
        let seq = cached.sequence_service_batch(&items);
        assert_eq!(seq.len(), items.len());
        assert_eq!(*seq[0], cached.inner().sequence_service(items[0]));
        assert!(seq[3].iter().all(|row| row.iter().all(|&x| x == 0.0)));
        // 2 degraded ids × 2 batch calls.
        assert_eq!(cached.stats().degraded, 4);
    }

    #[test]
    fn serving_survives_a_panic_while_a_shard_lock_is_held() {
        let cached = CachedService::new(service(), 16);
        let item = EntityId(1);
        let before = cached.condensed_service(item);
        // Panic while holding the shard's write lock: with std locks this
        // would poison the shard; serving must keep answering regardless.
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = cached.shard_of(item.0).condensed.write();
            panic!("worker died mid-publish");
        }));
        assert!(panicked.is_err());
        let after = cached.condensed_service(item);
        assert_eq!(*before, *after);
        let batch = cached.condensed_service_batch(&[item, EntityId(2)]);
        assert_eq!(batch.len(), 2);
    }

    #[test]
    fn snapshot_backed_cache_serves_snapshot_rows() {
        let svc = service();
        let snap = ServiceSnapshot::build(&svc).quantize();
        let cached = CachedService::with_snapshot(svc.clone(), 16, snap.clone());
        assert!(cached.snapshot().is_some_and(ServiceSnapshot::is_quantized));
        let mut expect = Vec::new();
        for i in 0..8u32 {
            snap.lookup_exact(EntityId(i), &mut expect);
            let got = cached.condensed_service(EntityId(i));
            assert_eq!(*got, expect, "miss for item {i} must serve snapshot row");
            // Second call is a cache hit returning the same bits.
            assert_eq!(*cached.condensed_service(EntityId(i)), expect);
        }
        let stats = cached.stats();
        assert_eq!(stats.misses, 8);
        assert_eq!(stats.hits, 8);
        // Degraded ids keep the zero fallback — the snapshot is not consulted.
        let far = cached.condensed_service(EntityId(u32::MAX));
        assert!(far.iter().all(|&x| x == 0.0));
        // Batch path serves the same snapshot rows.
        let fresh = CachedService::with_snapshot(svc, 16, snap.clone());
        let items: Vec<EntityId> = (0..8u32).map(EntityId).collect();
        for (i, v) in fresh.condensed_service_batch(&items).iter().enumerate() {
            snap.lookup_exact(items[i], &mut expect);
            assert_eq!(**v, expect);
        }
        // Sequence services always compute live.
        assert_eq!(
            *fresh.sequence_service(EntityId(3)),
            fresh.inner().sequence_service(EntityId(3))
        );
    }

    #[test]
    fn concurrent_stress_mixes_batch_and_single() {
        let cached = std::sync::Arc::new(CachedService::new(service(), 64));
        std::thread::scope(|s| {
            for t in 0..8u32 {
                let cached = std::sync::Arc::clone(&cached);
                s.spawn(move || {
                    for round in 0..20u32 {
                        let base = (t + round) % 8;
                        if round % 2 == 0 {
                            let items: Vec<EntityId> =
                                (0..8u32).map(|i| EntityId((base + i) % 8)).collect();
                            for (j, v) in cached.condensed_service_batch(&items).iter().enumerate()
                            {
                                assert_eq!(**v, cached.inner().condensed_service(items[j]));
                            }
                        } else {
                            let v = cached.sequence_service(EntityId(base));
                            assert_eq!(*v, cached.inner().sequence_service(EntityId(base)));
                        }
                    }
                });
            }
        });
        let stats = cached.stats();
        assert!(stats.hits > 0, "stress run should hit the cache: {stats:?}");
        assert!(stats.misses > 0);
    }
}
