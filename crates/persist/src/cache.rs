//! Result cache: converged results and resumable snapshots, LRU-evicted
//! under a byte budget.
//!
//! Production traffic is highly repetitive, so the service keeps a cache
//! keyed by `(integrand id, region, tolerance)`.  Each entry can hold a
//! converged [`CachedResult`] (served on an exact key hit without touching a
//! device) and/or a [`Snapshot`] of the region tree (used to warm-start a
//! request at a different tolerance over the same integrand and region).
//!
//! Two disciplines from ARCHITECTURE.md apply here: the cache uses a single
//! internal mutex and never acquires another lock while holding it (rule R1,
//! lock-order acyclicity), and recency is tracked with a logical counter
//! rather than the wall clock (rule R4 — the clock must never influence
//! result-producing control flow; eviction order is part of which snapshot a
//! warm start sees).
//!
//! No operation scans the whole cache.  Entries are ordered by key, so the
//! entries of one root (integrand id and corner bits) are one contiguous
//! range, and a second ordered map indexes them by `last_used`: lookups,
//! peeks and evictions cost one root's entries plus a logarithm of the
//! entry count.

use std::cmp::Reverse;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use crate::snapshot::Snapshot;

/// Cache key: the exact identity of an integration request.
///
/// Region corners and tolerances are stored as `f64::to_bits` patterns so
/// key equality is bit-exact (`-0.0` and `0.0` are *different* keys, NaN
/// corners compare equal to themselves) and so the key can implement `Hash`
/// and `Eq` without float caveats.
///
/// The integrand id is the integrand's `name()`.  Closure-built integrands
/// share a default name, so callers that mix distinct closures through one
/// cache must give them unique names — the cache cannot see function bodies.
/// Keys order by integrand id, then corners, then tolerances, so the keys of
/// one integrand and root region sort next to each other.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CacheKey {
    /// Integrand identifier (`Integrand::name()`).
    pub integrand_id: String,
    /// Bit patterns of the region's lower corner, one per axis.
    pub region_lo_bits: Vec<u64>,
    /// Bit patterns of the region's upper corner, one per axis.
    pub region_hi_bits: Vec<u64>,
    /// Bit pattern of the relative tolerance.
    pub rel_bits: u64,
    /// Bit pattern of the absolute tolerance.
    pub abs_bits: u64,
}

impl CacheKey {
    /// Build a key from the request's raw floats.
    pub fn new(integrand_id: &str, lo: &[f64], hi: &[f64], rel_tol: f64, abs_tol: f64) -> Self {
        CacheKey {
            integrand_id: integrand_id.to_string(),
            region_lo_bits: lo.iter().map(|v| v.to_bits()).collect(),
            region_hi_bits: hi.iter().map(|v| v.to_bits()).collect(),
            rel_bits: rel_tol.to_bits(),
            abs_bits: abs_tol.to_bits(),
        }
    }

    /// Whether `snapshot` was taken of this key's integrand and root region
    /// (bit-exact corners; tolerances may differ).
    fn owns(&self, snapshot: &Snapshot) -> bool {
        let bits = |corner: &[f64]| corner.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        snapshot.integrand_id == self.integrand_id
            && bits(&snapshot.region_lo) == self.region_lo_bits
            && bits(&snapshot.region_hi) == self.region_hi_bits
    }

    fn approx_bytes(&self) -> usize {
        self.integrand_id.len()
            + (self.region_lo_bits.len() + self.region_hi_bits.len() + 2)
                * std::mem::size_of::<u64>()
            + 64
    }
}

/// A converged result stored for exact-hit serving.
///
/// Plain data rather than core's `IntegrationResult` so this crate stays
/// free of driver types; the service layer converts on the way in and out.
#[derive(Debug, Clone, PartialEq)]
pub struct CachedResult {
    /// Converged integral estimate.
    pub estimate: f64,
    /// Error estimate paired with the integral.
    pub error_estimate: f64,
    /// Iterations the original run took.
    pub iterations: usize,
    /// Integrand evaluations the original run spent (the savings of a hit).
    pub function_evaluations: u64,
    /// Regions the original run materialized.
    pub regions_generated: u64,
}

/// Non-bumping summary of a cached snapshot, for admission-control peeks.
#[derive(Debug, Clone, PartialEq)]
pub struct WarmStartInfo {
    /// Relative tolerance the snapshotted run was configured with.
    pub rel_tol: f64,
    /// Absolute tolerance the snapshotted run was configured with.
    pub abs_tol: f64,
    /// Error already frozen into the snapshot's finished set.
    pub finished_error: f64,
    /// Best cumulative estimate the snapshotted run had observed.
    pub latest_estimate: f64,
    /// Evaluations banked in the snapshot (work a warm start inherits).
    pub function_evaluations: u64,
    /// Whether the snapshotted run converged.
    pub converged: bool,
}

struct Entry {
    result: Option<CachedResult>,
    snapshot: Option<Snapshot>,
    /// Logical-clock stamp of the last hit or store (rule R4: no `Instant`).
    last_used: u64,
    bytes: usize,
}

fn entry_bytes(
    key: &CacheKey,
    result: &Option<CachedResult>,
    snapshot: &Option<Snapshot>,
) -> usize {
    key.approx_bytes()
        + result
            .as_ref()
            .map_or(0, |_| std::mem::size_of::<CachedResult>())
        + snapshot.as_ref().map_or(0, Snapshot::approx_bytes)
}

struct CacheState {
    /// Entries by key; the key is shared with [`CacheState::recency`].
    map: BTreeMap<Arc<CacheKey>, Entry>,
    /// Every key by its entry's `last_used` stamp.  Stamps are unique (each
    /// operation bumps the clock and stamps at most one entry), so the first
    /// element is the least recently used entry.
    recency: BTreeMap<u64, Arc<CacheKey>>,
    clock: u64,
    bytes_used: usize,
    byte_budget: usize,
    evictions: u64,
}

impl CacheState {
    fn tick(&mut self) -> u64 {
        self.clock += 1;
        self.clock
    }

    /// Restamp `key`'s entry (which must exist) with `clock`.
    fn touch(&mut self, key: &CacheKey, clock: u64) {
        let entry = self.map.get_mut(key).expect("touched entry exists");
        let owned = self
            .recency
            .remove(&entry.last_used)
            .expect("every entry has a recency stamp");
        entry.last_used = clock;
        self.recency.insert(clock, owned);
    }

    /// The key of the best snapshot for `(integrand, region)`: most banked
    /// evaluations, ties broken towards the smallest `(rel, abs)` tolerance
    /// bits so the choice never depends on insertion order.
    fn best_snapshot_key(
        &self,
        integrand_id: &str,
        lo: &[u64],
        hi: &[u64],
    ) -> Option<&Arc<CacheKey>> {
        // The smallest key of this root; its entries follow it contiguously.
        let first = CacheKey {
            integrand_id: integrand_id.to_string(),
            region_lo_bits: lo.to_vec(),
            region_hi_bits: hi.to_vec(),
            rel_bits: 0,
            abs_bits: 0,
        };
        self.map
            .range(first..)
            .take_while(|(k, _)| {
                k.integrand_id == integrand_id && k.region_lo_bits == lo && k.region_hi_bits == hi
            })
            .filter_map(|(k, e)| Some((k, e.snapshot.as_ref()?.function_evaluations)))
            .max_by_key(|&(k, evals)| (evals, Reverse((k.rel_bits, k.abs_bits))))
            .map(|(k, _)| k)
    }

    /// Remove the least recently used entry; returns its key.
    fn evict_oldest(&mut self) -> Arc<CacheKey> {
        let (_, victim) = self.recency.pop_first().expect("non-empty cache");
        let evicted = self.map.remove(&victim).expect("victim exists");
        self.bytes_used -= evicted.bytes;
        self.evictions += 1;
        victim
    }
}

/// Shared LRU result cache with a byte budget.
///
/// All operations take the single internal mutex for their whole duration;
/// there is no lock ordering to get wrong because the cache never calls out
/// while holding it.
pub struct ResultCache {
    state: Mutex<CacheState>,
}

impl std::fmt::Debug for ResultCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let state = self.lock();
        f.debug_struct("ResultCache")
            .field("entries", &state.map.len())
            .field("bytes_used", &state.bytes_used)
            .field("byte_budget", &state.byte_budget)
            .field("evictions", &state.evictions)
            .finish()
    }
}

impl ResultCache {
    /// Create a cache that evicts least-recently-used entries once the
    /// approximate footprint exceeds `byte_budget`.
    pub fn new(byte_budget: usize) -> Self {
        ResultCache {
            state: Mutex::new(CacheState {
                map: BTreeMap::new(),
                recency: BTreeMap::new(),
                clock: 0,
                bytes_used: 0,
                byte_budget,
                evictions: 0,
            }),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, CacheState> {
        // The cache holds plain data and never panics while locked, but be
        // robust to a poisoned mutex from a panicking caller thread anyway.
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Look up a converged result by exact key, bumping its recency.
    pub fn lookup_result(&self, key: &CacheKey) -> Option<CachedResult> {
        let mut state = self.lock();
        let clock = state.tick();
        let hit = state.map.get(key)?.result.clone()?;
        state.touch(key, clock);
        Some(hit)
    }

    /// Find the best snapshot for `(integrand, region)` at *any* tolerance,
    /// bumping the owning entry's recency.
    ///
    /// "Best" is the snapshot with the most banked evaluations — the deepest
    /// tree, which gives a warm start the largest head start.  Ties go to the
    /// entry with the smallest `(rel, abs)` tolerance bits.
    pub fn lookup_snapshot(
        &self,
        integrand_id: &str,
        region_lo_bits: &[u64],
        region_hi_bits: &[u64],
    ) -> Option<Snapshot> {
        let mut state = self.lock();
        let clock = state.tick();
        let key =
            Arc::clone(state.best_snapshot_key(integrand_id, region_lo_bits, region_hi_bits)?);
        state.touch(&key, clock);
        state.map[&key].snapshot.clone()
    }

    /// Whether an exact converged result exists for `key`, without bumping
    /// recency (admission control must not perturb eviction order).
    pub fn contains_result(&self, key: &CacheKey) -> bool {
        let state = self.lock();
        state.map.get(key).is_some_and(|e| e.result.is_some())
    }

    /// Summarize the best warm-start snapshot for `(integrand, region)`
    /// without bumping recency, for admission-control cost discounting.
    pub fn peek_warm_start(
        &self,
        integrand_id: &str,
        region_lo_bits: &[u64],
        region_hi_bits: &[u64],
    ) -> Option<WarmStartInfo> {
        let state = self.lock();
        let key = state.best_snapshot_key(integrand_id, region_lo_bits, region_hi_bits)?;
        state.map[key].snapshot.as_ref().map(|s| WarmStartInfo {
            rel_tol: s.rel_tol,
            abs_tol: s.abs_tol,
            finished_error: s.finished_error,
            latest_estimate: s.latest_estimate,
            function_evaluations: s.function_evaluations,
            converged: s.converged,
        })
    }

    /// Store a result and/or snapshot under `key`, merging with any existing
    /// entry (a `None` part leaves the existing part in place) and evicting
    /// least-recently-used entries until the byte budget is met.
    ///
    /// A snapshot of another integrand or root region than `key` names is
    /// dropped: resume rebuilds the root from the snapshot's own corners, so
    /// filing it under this key would silently resume the wrong tree.
    pub fn store(&self, key: CacheKey, result: Option<CachedResult>, snapshot: Option<Snapshot>) {
        let snapshot = snapshot.filter(|s| key.owns(s));
        if result.is_none() && snapshot.is_none() {
            return;
        }
        let mut state = self.lock();
        let clock = state.tick();
        let mut entry = match state.map.remove(&key) {
            Some(entry) => {
                state.recency.remove(&entry.last_used);
                entry
            }
            None => Entry {
                result: None,
                snapshot: None,
                last_used: clock,
                bytes: 0,
            },
        };
        state.bytes_used -= entry.bytes;
        if result.is_some() {
            entry.result = result;
        }
        if snapshot.is_some() {
            entry.snapshot = snapshot;
        }
        entry.bytes = entry_bytes(&key, &entry.result, &entry.snapshot);
        entry.last_used = clock;
        state.bytes_used += entry.bytes;
        let key = Arc::new(key);
        state.recency.insert(clock, Arc::clone(&key));
        state.map.insert(Arc::clone(&key), entry);
        while state.bytes_used > state.byte_budget && !state.map.is_empty() {
            if state.evict_oldest() == key {
                // The fresh entry alone exceeds the budget; drop it outright
                // rather than evicting the rest of the cache for nothing.
                break;
            }
        }
    }

    /// Number of entries currently held.
    pub fn len(&self) -> usize {
        self.lock().map.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.lock().map.is_empty()
    }

    /// Approximate bytes currently held.
    pub fn bytes_used(&self) -> usize {
        self.lock().bytes_used
    }

    /// The configured byte budget.
    pub fn byte_budget(&self) -> usize {
        self.lock().byte_budget
    }

    /// Entries evicted so far to satisfy the byte budget.
    pub fn evictions(&self) -> u64 {
        self.lock().evictions
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::SNAPSHOT_FORMAT_VERSION;

    fn key(id: &str, rel: f64) -> CacheKey {
        CacheKey::new(id, &[0.0, 0.0], &[1.0, 1.0], rel, 1e-20)
    }

    fn result(evals: u64) -> CachedResult {
        CachedResult {
            estimate: 1.0,
            error_estimate: 1e-9,
            iterations: 4,
            function_evaluations: evals,
            regions_generated: 100,
        }
    }

    fn snapshot(id: &str, evals: u64, regions: usize) -> Snapshot {
        Snapshot {
            version: SNAPSHOT_FORMAT_VERSION,
            integrand_id: id.to_string(),
            region_lo: vec![0.0, 0.0],
            region_hi: vec![1.0, 1.0],
            rel_tol: 1e-3,
            abs_tol: 1e-20,
            converged: false,
            dim: 2,
            lefts: vec![0.0; regions * 2],
            lengths: vec![1.0; regions * 2],
            parent_integrals: None,
            finished_estimate: 0.0,
            finished_error: 0.0,
            threshold_frozen_error: 0.0,
            function_evaluations: evals,
            regions_generated: regions as u64,
            previous_cumulative: None,
            next_iteration: 1,
            latest_estimate: 1.0,
            latest_error: 1e-3,
        }
    }

    #[test]
    fn exact_hits_require_bitwise_key_equality() {
        let cache = ResultCache::new(1 << 20);
        cache.store(key("f", 1e-3), Some(result(17)), None);
        assert_eq!(cache.lookup_result(&key("f", 1e-3)), Some(result(17)));
        assert_eq!(cache.lookup_result(&key("f", 1e-4)), None);
        assert_eq!(cache.lookup_result(&key("g", 1e-3)), None);
        let negated = CacheKey::new("f", &[-0.0, 0.0], &[1.0, 1.0], 1e-3, 1e-20);
        assert_eq!(cache.lookup_result(&negated), None);
    }

    #[test]
    fn snapshot_lookup_spans_tolerances_and_prefers_deepest() {
        let cache = ResultCache::new(1 << 20);
        cache.store(key("f", 1e-2), None, Some(snapshot("f", 100, 4)));
        cache.store(key("f", 1e-3), None, Some(snapshot("f", 900, 16)));
        let k = key("f", 1e-6); // tolerance absent from the cache
        let best = cache
            .lookup_snapshot(&k.integrand_id, &k.region_lo_bits, &k.region_hi_bits)
            .unwrap();
        assert_eq!(best.function_evaluations, 900);
        let info = cache
            .peek_warm_start(&k.integrand_id, &k.region_lo_bits, &k.region_hi_bits)
            .unwrap();
        assert_eq!(info.function_evaluations, 900);
        assert_eq!(info.rel_tol, 1e-3);
    }

    #[test]
    fn snapshot_ties_go_to_the_smallest_tolerance_bits() {
        let cache = ResultCache::new(1 << 20);
        for rel in [1e-2, 1e-4, 1e-3] {
            let mut snap = snapshot("f", 500, 4);
            snap.rel_tol = rel;
            cache.store(key("f", rel), None, Some(snap));
        }
        let k = key("f", 1e-6);
        let info = cache
            .peek_warm_start(&k.integrand_id, &k.region_lo_bits, &k.region_hi_bits)
            .unwrap();
        assert_eq!(info.rel_tol, 1e-4);
        let best = cache
            .lookup_snapshot(&k.integrand_id, &k.region_lo_bits, &k.region_hi_bits)
            .unwrap();
        assert_eq!(best.rel_tol, 1e-4);
    }

    #[test]
    fn store_merges_result_and_snapshot_parts() {
        let cache = ResultCache::new(1 << 20);
        cache.store(key("f", 1e-3), None, Some(snapshot("f", 50, 2)));
        cache.store(key("f", 1e-3), Some(result(60)), None);
        assert_eq!(cache.len(), 1);
        assert!(cache.lookup_result(&key("f", 1e-3)).is_some());
        let k = key("f", 1e-3);
        assert!(cache
            .lookup_snapshot(&k.integrand_id, &k.region_lo_bits, &k.region_hi_bits)
            .is_some());
    }

    #[test]
    fn byte_budget_evicts_least_recently_used() {
        let probe = |id| snapshot(id, 1, 64);
        let one_entry = entry_bytes(&key("a", 1e-3), &None, &Some(probe("a")));
        // Room for two entries but not three.
        let cache = ResultCache::new(one_entry * 2 + one_entry / 2);
        cache.store(key("a", 1e-3), None, Some(probe("a")));
        cache.store(key("b", 1e-3), None, Some(probe("b")));
        // Touch "a" so "b" is the LRU victim when "c" arrives.
        assert!(cache
            .lookup_snapshot(
                "a",
                &key("a", 1e-3).region_lo_bits,
                &key("a", 1e-3).region_hi_bits
            )
            .is_some());
        cache.store(key("c", 1e-3), None, Some(probe("c")));
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.evictions(), 1);
        assert!(!cache.contains_result(&key("b", 1e-3)));
        let kb = key("b", 1e-3);
        assert!(cache
            .lookup_snapshot(&kb.integrand_id, &kb.region_lo_bits, &kb.region_hi_bits)
            .is_none());
    }

    #[test]
    fn oversized_entry_is_dropped_not_cached() {
        let cache = ResultCache::new(64);
        cache.store(key("big", 1e-3), None, Some(snapshot("big", 1, 1024)));
        assert!(cache.is_empty());
        assert_eq!(cache.evictions(), 1);
        assert!(cache.bytes_used() <= cache.byte_budget());
    }

    #[test]
    fn store_drops_snapshots_of_another_integrand_or_region() {
        let cache = ResultCache::new(1 << 20);
        cache.store(key("g", 1e-3), None, Some(snapshot("f", 10, 2)));
        let mut shifted = snapshot("f", 20, 2);
        shifted.region_hi = vec![1.0, 2.0];
        cache.store(key("f", 1e-3), None, Some(shifted));
        let mut negated = snapshot("f", 30, 2);
        negated.region_lo = vec![-0.0, 0.0];
        cache.store(key("f", 1e-3), Some(result(40)), Some(negated));
        let (kf, kg) = (key("f", 1e-3), key("g", 1e-3));
        assert!(cache
            .lookup_snapshot(&kg.integrand_id, &kg.region_lo_bits, &kg.region_hi_bits)
            .is_none());
        assert!(cache
            .lookup_snapshot(&kf.integrand_id, &kf.region_lo_bits, &kf.region_hi_bits)
            .is_none());
        // The result part of a store is kept; only the foreign snapshot goes.
        assert_eq!(cache.lookup_result(&kf), Some(result(40)));
        assert_eq!(cache.len(), 1);
        // A snapshot of the key's own integrand and region is filed.
        cache.store(kg.clone(), None, Some(snapshot("g", 50, 2)));
        assert!(cache
            .lookup_snapshot(&kg.integrand_id, &kg.region_lo_bits, &kg.region_hi_bits)
            .is_some_and(|s| s.function_evaluations == 50));
    }

    #[test]
    fn peeks_do_not_perturb_lru_order() {
        let probe = |id| snapshot(id, 1, 64);
        let one_entry = entry_bytes(&key("a", 1e-3), &None, &Some(probe("a")));
        let cache = ResultCache::new(one_entry * 2 + one_entry / 2);
        cache.store(key("a", 1e-3), None, Some(probe("a")));
        cache.store(key("b", 1e-3), None, Some(probe("b")));
        // Peek "a" (non-bumping): "a" must still be the LRU victim.
        let ka = key("a", 1e-3);
        assert!(cache
            .peek_warm_start(&ka.integrand_id, &ka.region_lo_bits, &ka.region_hi_bits)
            .is_some());
        assert!(!cache.contains_result(&ka));
        cache.store(key("c", 1e-3), None, Some(probe("c")));
        let gone = cache.lookup_snapshot(&ka.integrand_id, &ka.region_lo_bits, &ka.region_hi_bits);
        assert!(
            gone.is_none(),
            "peeked entry should have been evicted first"
        );
    }

    /// The cache as it was before its indexes: a flat list that every
    /// operation scans in full, with the same deterministic tie-break.
    struct Model {
        entries: Vec<ModelEntry>,
        clock: u64,
        bytes_used: usize,
        budget: usize,
        evictions: u64,
    }

    struct ModelEntry {
        key: CacheKey,
        result: Option<CachedResult>,
        snapshot: Option<Snapshot>,
        last_used: u64,
        bytes: usize,
    }

    impl Model {
        fn new(budget: usize) -> Self {
            Model {
                entries: Vec::new(),
                clock: 0,
                bytes_used: 0,
                budget,
                evictions: 0,
            }
        }

        fn find(&self, key: &CacheKey) -> Option<usize> {
            self.entries.iter().position(|e| &e.key == key)
        }

        fn best(&self, k: &CacheKey) -> Option<usize> {
            (0..self.entries.len())
                .filter(|&i| {
                    let e = &self.entries[i];
                    e.snapshot.is_some()
                        && e.key.integrand_id == k.integrand_id
                        && e.key.region_lo_bits == k.region_lo_bits
                        && e.key.region_hi_bits == k.region_hi_bits
                })
                .max_by_key(|&i| {
                    let e = &self.entries[i];
                    let evals = e.snapshot.as_ref().map_or(0, |s| s.function_evaluations);
                    (evals, Reverse((e.key.rel_bits, e.key.abs_bits)))
                })
        }

        fn lookup_result(&mut self, key: &CacheKey) -> Option<CachedResult> {
            self.clock += 1;
            let i = self.find(key)?;
            let hit = self.entries[i].result.clone()?;
            self.entries[i].last_used = self.clock;
            Some(hit)
        }

        fn lookup_snapshot(&mut self, k: &CacheKey) -> Option<Snapshot> {
            self.clock += 1;
            let i = self.best(k)?;
            self.entries[i].last_used = self.clock;
            self.entries[i].snapshot.clone()
        }

        fn peek_evals(&self, k: &CacheKey) -> Option<(u64, f64)> {
            let snap = self.entries[self.best(k)?].snapshot.as_ref()?;
            Some((snap.function_evaluations, snap.rel_tol))
        }

        fn store(
            &mut self,
            key: CacheKey,
            result: Option<CachedResult>,
            snapshot: Option<Snapshot>,
        ) {
            let snapshot = snapshot.filter(|s| key.owns(s));
            if result.is_none() && snapshot.is_none() {
                return;
            }
            self.clock += 1;
            let mut entry = match self.find(&key) {
                Some(i) => self.entries.remove(i),
                None => ModelEntry {
                    key: key.clone(),
                    result: None,
                    snapshot: None,
                    last_used: self.clock,
                    bytes: 0,
                },
            };
            self.bytes_used -= entry.bytes;
            if result.is_some() {
                entry.result = result;
            }
            if snapshot.is_some() {
                entry.snapshot = snapshot;
            }
            entry.bytes = entry_bytes(&key, &entry.result, &entry.snapshot);
            entry.last_used = self.clock;
            self.bytes_used += entry.bytes;
            self.entries.push(entry);
            while self.bytes_used > self.budget && !self.entries.is_empty() {
                let oldest = (0..self.entries.len())
                    .min_by_key(|&i| self.entries[i].last_used)
                    .expect("non-empty");
                let victim = self.entries.remove(oldest);
                self.bytes_used -= victim.bytes;
                self.evictions += 1;
                if victim.key == key {
                    break;
                }
            }
        }
    }

    /// Key number `pick` of a small pool: two integrands, two roots, three
    /// tolerances, so roots collide and snapshot groups hold several entries.
    fn pooled_key(pick: u64) -> CacheKey {
        let id = if pick % 2 == 0 { "f" } else { "g" };
        let hi = if (pick / 2) % 2 == 0 {
            [1.0, 1.0]
        } else {
            [1.0, 2.0]
        };
        let rel = [1e-2, 1e-3, 1e-4][((pick / 4) % 3) as usize];
        CacheKey::new(id, &[0.0, 0.0], &hi, rel, 1e-20)
    }

    fn pooled_snapshot(key: &CacheKey, seed: u64) -> Snapshot {
        // Few distinct evaluation counts, so ties are common.
        let mut snap = snapshot(
            &key.integrand_id,
            1 + seed % 3,
            1 + (seed / 3 % 40) as usize,
        );
        snap.region_hi = key
            .region_hi_bits
            .iter()
            .map(|&b| f64::from_bits(b))
            .collect();
        snap.rel_tol = f64::from_bits(key.rel_bits);
        if (seed / 120) % 8 == 0 {
            // A foreign snapshot, which store must drop.
            snap.integrand_id = "h".to_string();
        }
        snap
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// Random store / lookup / peek sequences under a tight byte budget
        /// (so evictions happen) agree with the full-scan model on every
        /// answer, and on size, bytes and eviction count after every step.
        #[test]
        fn prop_indexed_cache_matches_full_scan_model(
            budget in 400usize..6000,
            ops in proptest::collection::vec(0u64..u64::MAX, 1..200),
        ) {
            let cache = ResultCache::new(budget);
            let mut model = Model::new(budget);
            for op in ops {
                let key = pooled_key(op >> 8);
                match op % 6 {
                    0 | 1 => {
                        let result = (op >> 40) % 2 == 0;
                        let snap = (op >> 41) % 4 != 0;
                        let result = result.then(|| result_of(op >> 20));
                        let snap = snap.then(|| pooled_snapshot(&key, op >> 42));
                        cache.store(key.clone(), result.clone(), snap.clone());
                        model.store(key, result, snap);
                    }
                    2 => proptest::prop_assert_eq!(cache.lookup_result(&key), model.lookup_result(&key)),
                    3 => {
                        let got = cache.lookup_snapshot(&key.integrand_id, &key.region_lo_bits, &key.region_hi_bits);
                        proptest::prop_assert_eq!(got, model.lookup_snapshot(&key));
                    }
                    4 => {
                        let got = cache
                            .peek_warm_start(&key.integrand_id, &key.region_lo_bits, &key.region_hi_bits)
                            .map(|info| (info.function_evaluations, info.rel_tol));
                        proptest::prop_assert_eq!(got, model.peek_evals(&key));
                    }
                    _ => {
                        let want = model.find(&key).is_some_and(|i| model.entries[i].result.is_some());
                        proptest::prop_assert_eq!(cache.contains_result(&key), want);
                    }
                }
                proptest::prop_assert_eq!(cache.len(), model.entries.len());
                proptest::prop_assert_eq!(cache.bytes_used(), model.bytes_used);
                proptest::prop_assert_eq!(cache.evictions(), model.evictions);
            }
        }
    }

    fn result_of(seed: u64) -> CachedResult {
        result(seed % 1000)
    }
}
