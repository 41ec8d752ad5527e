//! The content-addressed residual cache and its warm-start index.
//!
//! Two tables, one clock:
//!
//! * **Artifacts** — fingerprint → verified residual program.  A hit
//!   skips the entire pipeline; this is the ≥10× path the service
//!   lives for.
//! * **Warm index** — fingerprint → [`MemoSnapshot`].  When an artifact
//!   has been evicted (or was never cached) but the specializer's memo
//!   table survives, a recompile warm-starts: every specialization
//!   point replays from the table and the output is byte-identical to
//!   the cold compile at a fraction of the cost.
//!
//! Both tables evict least-recently-used entries against one capacity,
//! under one logical clock, so behaviour is deterministic for a given
//! operation order.  The cache itself is single-threaded; the server
//! wraps it in a mutex and keeps the critical sections to map
//! operations only (compiles happen outside the lock).

use crate::fingerprint::Fingerprint;
use pe_core::{MemoSnapshot, S0Program};
use pe_intern::FxHashMap;

/// A cached compilation product: the verified residual program plus the
/// sizes the bench harness reports.
#[derive(Debug, Clone)]
pub struct Artifact {
    /// The compile key this artifact is stored under.
    pub fingerprint: Fingerprint,
    /// The verified residual program.
    pub s0: S0Program,
    /// `s0.to_source()`, rendered once at insert time so hit responses
    /// and byte-identity checks never re-render.
    pub residual_source: String,
    /// Residual procedure count.
    pub procs: usize,
    /// Residual S₀ node count.
    pub nodes: usize,
}

/// Monotonic cache counters.  `lookups == hits + misses` is an
/// invariant the differential tests assert suite-wide.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Artifact-table lookups.
    pub lookups: u64,
    /// Lookups answered from the artifact table.
    pub hits: u64,
    /// Lookups that fell through to a compile.
    pub misses: u64,
    /// Artifacts inserted.
    pub insertions: u64,
    /// Artifacts evicted by the LRU policy.
    pub evictions: u64,
    /// Compiles that warm-started from a memo snapshot.
    pub warm_starts: u64,
}

struct ArtifactSlot {
    artifact: Artifact,
    last_used: u64,
}

struct WarmSlot {
    snapshot: MemoSnapshot,
    last_used: u64,
}

/// See the module docs.
pub struct ResidualCache {
    artifacts: FxHashMap<u128, ArtifactSlot>,
    warm: FxHashMap<u128, WarmSlot>,
    capacity: usize,
    tick: u64,
    stats: CacheStats,
}

impl ResidualCache {
    /// An empty cache holding at most `capacity` artifacts (and as many
    /// warm snapshots).  A capacity of 0 disables artifact storage —
    /// every request compiles, which the bench harness uses to measure
    /// the pure warm-start effect.
    #[must_use]
    pub fn new(capacity: usize) -> ResidualCache {
        ResidualCache {
            artifacts: FxHashMap::default(),
            warm: FxHashMap::default(),
            capacity,
            tick: 0,
            stats: CacheStats::default(),
        }
    }

    fn tick(&mut self) -> u64 {
        self.tick += 1;
        self.tick
    }

    /// Looks up an artifact, counting the hit or miss and refreshing
    /// recency on hit.
    pub fn lookup(&mut self, fp: Fingerprint) -> Option<Artifact> {
        self.stats.lookups += 1;
        let now = self.tick();
        match self.artifacts.get_mut(&fp.0) {
            Some(slot) => {
                self.stats.hits += 1;
                slot.last_used = now;
                Some(slot.artifact.clone())
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Fetches an artifact *without* counting a lookup, refreshing
    /// recency only.  The in-flight dedup path uses this: a waiter has
    /// already counted its miss and is just collecting the artifact
    /// the leading compile landed.
    pub fn peek(&mut self, fp: Fingerprint) -> Option<Artifact> {
        let now = self.tick();
        let slot = self.artifacts.get_mut(&fp.0)?;
        slot.last_used = now;
        Some(slot.artifact.clone())
    }

    /// The warm snapshot for a compile key, if one survives.  Counts a
    /// warm start — callers only ask on the way into a compile.
    pub fn warm_snapshot(&mut self, fp: Fingerprint) -> Option<MemoSnapshot> {
        let now = self.tick();
        let slot = self.warm.get_mut(&fp.0)?;
        slot.last_used = now;
        self.stats.warm_starts += 1;
        Some(slot.snapshot.clone())
    }

    /// Stores a freshly compiled artifact and its memo snapshot,
    /// evicting least-recently-used entries over capacity.  Returns the
    /// number of artifacts evicted.
    pub fn insert(&mut self, artifact: Artifact, snapshot: MemoSnapshot) -> usize {
        let now = self.tick();
        let key = artifact.fingerprint.0;
        if self.capacity > 0 {
            self.stats.insertions += 1;
            self.artifacts.insert(key, ArtifactSlot { artifact, last_used: now });
        }
        self.warm.insert(key, WarmSlot { snapshot, last_used: now });
        let evicted = evict_lru(&mut self.artifacts, self.capacity, |s| s.last_used);
        // The warm index is the cheaper tier (raw procs, no rendered
        // source), so it keeps 4x the artifact capacity: an artifact
        // eviction leaves the snapshot behind precisely so the
        // re-compile is warm rather than cold.
        evict_lru(&mut self.warm, self.capacity.max(1) * 4, |s| s.last_used);
        self.stats.evictions += evicted as u64;
        evicted
    }

    /// Counter snapshot.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Artifacts currently stored.
    #[must_use]
    pub fn len(&self) -> usize {
        self.artifacts.len()
    }

    /// True when no artifact is stored.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.artifacts.is_empty()
    }
}

/// Evicts smallest-recency entries until `map` fits `capacity`.
/// Returns how many were evicted.  Linear scans are fine: capacity is
/// small (hundreds) and eviction is rare compared to lookups.
fn evict_lru<V>(
    map: &mut FxHashMap<u128, V>,
    capacity: usize,
    last_used: impl Fn(&V) -> u64,
) -> usize {
    let mut evicted = 0;
    while map.len() > capacity {
        let oldest = map
            .iter()
            .min_by_key(|(_, v)| last_used(v))
            .map(|(k, _)| *k)
            .expect("non-empty map over capacity");
        map.remove(&oldest);
        evicted += 1;
    }
    evicted
}

#[cfg(test)]
mod tests {
    use super::*;

    fn art(n: u128) -> Artifact {
        Artifact {
            fingerprint: Fingerprint(n),
            s0: S0Program { procs: Vec::new(), entry: n as usize },
            residual_source: format!("src{n}"),
            procs: 0,
            nodes: 0,
        }
    }

    #[test]
    fn hit_miss_accounting_is_exact() {
        let mut c = ResidualCache::new(4);
        assert!(c.lookup(Fingerprint(1)).is_none());
        c.insert(art(1), MemoSnapshot::default());
        assert!(c.lookup(Fingerprint(1)).is_some());
        assert!(c.lookup(Fingerprint(2)).is_none());
        let s = c.stats();
        assert_eq!(s.lookups, 3);
        assert_eq!(s.hits, 1);
        assert_eq!(s.misses, 2);
        assert_eq!(s.lookups, s.hits + s.misses);
    }

    #[test]
    fn lru_evicts_the_coldest_artifact() {
        let mut c = ResidualCache::new(2);
        c.insert(art(1), MemoSnapshot::default());
        c.insert(art(2), MemoSnapshot::default());
        assert!(c.lookup(Fingerprint(1)).is_some(), "refresh 1; 2 is now coldest");
        c.insert(art(3), MemoSnapshot::default());
        assert_eq!(c.len(), 2);
        assert!(c.lookup(Fingerprint(2)).is_none(), "2 was evicted");
        assert!(c.lookup(Fingerprint(1)).is_some());
        assert!(c.lookup(Fingerprint(3)).is_some());
        assert_eq!(c.stats().evictions, 1);
    }

    #[test]
    fn warm_snapshot_survives_artifact_eviction() {
        let mut c = ResidualCache::new(1);
        c.insert(art(1), MemoSnapshot::default());
        c.insert(art(2), MemoSnapshot::default());
        assert!(c.lookup(Fingerprint(1)).is_none(), "artifact 1 evicted");
        assert!(c.warm_snapshot(Fingerprint(1)).is_some(), "snapshot 1 retained");
        assert_eq!(c.stats().warm_starts, 1);
    }

    #[test]
    fn zero_capacity_disables_artifact_storage_only() {
        let mut c = ResidualCache::new(0);
        c.insert(art(1), MemoSnapshot::default());
        assert!(c.is_empty());
        assert!(c.lookup(Fingerprint(1)).is_none());
        assert!(c.warm_snapshot(Fingerprint(1)).is_some(), "warm tier stays on");
    }
}
