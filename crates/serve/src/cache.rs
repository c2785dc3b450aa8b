//! Content-addressed circuit cache.
//!
//! Re-analyzing the same netlist with different knobs is the common
//! service workload, and parsing/annotating a 19k-gate profile dwarfs
//! many analyses. The cache keys on an FNV-1a hash of everything that
//! determines the parsed-and-annotated circuit — the spec text and the
//! delay seed — and holds `Arc`s so concurrent jobs share one parsed
//! copy. Eviction is FIFO with a fixed entry cap: deterministic, and
//! good enough for a cache whose entries are all cheap to rebuild.

use crate::api::{build_netlist, ApiError, CircuitSpec};
use pep_celllib::{DelayModel, Timing};
use pep_netlist::Netlist;
use std::collections::HashMap;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

pub use pep_dist::hash::{fnv1a64, fnv1a_extend, FNV_OFFSET};

/// A parsed-and-annotated circuit, shared between concurrent jobs.
#[derive(Debug)]
pub struct CachedCircuit {
    /// The validated netlist.
    pub netlist: Netlist,
    /// Its annotated timing.
    pub timing: Timing,
    /// The content-hash key this entry lives under.
    pub key: u64,
}

/// The bounded, content-addressed circuit cache.
#[derive(Debug)]
pub struct CircuitCache {
    entries: Mutex<Entries>,
    capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
}

#[derive(Debug, Default)]
struct Entries {
    map: HashMap<u64, Arc<CachedCircuit>>,
    order: VecDeque<u64>,
}

impl CircuitCache {
    /// A cache holding at most `capacity` circuits (minimum 1).
    pub fn new(capacity: usize) -> Self {
        CircuitCache {
            entries: Mutex::new(Entries::default()),
            capacity: capacity.max(1),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Cache hits so far.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Cache misses (i.e. parses) so far.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Current entry count.
    pub fn len(&self) -> usize {
        self.entries.lock().expect("cache lock").map.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The cache key for a (spec, seed) pair.
    pub fn key_for(spec: &CircuitSpec, seed: u64) -> u64 {
        let mut hash = fnv1a64(spec.cache_text().as_bytes());
        hash = fnv1a_extend(hash, &seed.to_le_bytes());
        hash
    }

    /// Returns the cached circuit for `(spec, seed)`, parsing and
    /// annotating on a miss.
    ///
    /// The parse runs *outside* the cache lock, so a slow parse never
    /// blocks concurrent lookups; two simultaneous misses on the same
    /// key both parse and one insert wins (harmless — the results are
    /// deterministic and equal).
    ///
    /// # Errors
    ///
    /// [`ApiError`] when inline `.bench` text fails to parse.
    pub fn get_or_parse(
        &self,
        spec: &CircuitSpec,
        seed: u64,
    ) -> Result<Arc<CachedCircuit>, ApiError> {
        let key = Self::key_for(spec, seed);
        if let Some(found) = self.entries.lock().expect("cache lock").map.get(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok(Arc::clone(found));
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let netlist = build_netlist(spec)?;
        let timing = Timing::annotate(&netlist, &DelayModel::dac2001(seed));
        let entry = Arc::new(CachedCircuit {
            netlist,
            timing,
            key,
        });
        let mut entries = self.entries.lock().expect("cache lock");
        if !entries.map.contains_key(&key) {
            while entries.map.len() >= self.capacity {
                match entries.order.pop_front() {
                    Some(oldest) => {
                        entries.map.remove(&oldest);
                    }
                    None => break,
                }
            }
            entries.map.insert(key, Arc::clone(&entry));
            entries.order.push_back(key);
        }
        Ok(entry)
    }
}

/// A retained incremental analysis, shared between delta jobs.
pub struct RetainedState {
    /// The state key this entry lives under (also the wire `base`).
    pub key: u64,
    /// Circuit display name, for delta responses.
    pub circuit: String,
    /// The circuit spec's cache text (`CircuitSpec::cache_text`) — with
    /// `seed`, everything needed to re-parse and re-annotate the
    /// circuit when a snapshot of this state is rehydrated after a
    /// restart.
    pub circuit_text: String,
    /// The delay-model seed the circuit was annotated with.
    pub seed: u64,
    /// The circuit-cache content key (validates a rehydrated parse).
    pub circuit_key: u64,
    /// The retained analyzer. Delta jobs lock it, apply their
    /// overrides, read the result, and revert — so between jobs the
    /// state is always the pristine base.
    pub analyzer: Mutex<pep_core::IncrementalAnalyzer>,
}

impl std::fmt::Debug for RetainedState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RetainedState")
            .field("key", &self.key)
            .field("circuit", &self.circuit)
            .finish_non_exhaustive()
    }
}

/// The analysis-state cache behind delta mode.
///
/// Unlike the circuit cache, entries here are *expensive* — a retained
/// state holds the full per-node group slab — so eviction is LRU over
/// a byte budget (each entry's resident footprint is measured at
/// insert time) rather than a flat entry cap.
#[derive(Debug)]
pub struct StateCache {
    entries: Mutex<StateEntries>,
    byte_budget: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

#[derive(Debug, Default)]
struct StateEntries {
    map: HashMap<u64, (Arc<RetainedState>, usize)>,
    /// LRU order: front = coldest.
    order: VecDeque<u64>,
}

impl StateCache {
    /// A cache evicting down to roughly `byte_budget` resident bytes.
    /// The most recent entry is never evicted, so one oversized state
    /// still serves deltas (the budget then bounds *additional* states).
    pub fn new(byte_budget: usize) -> Self {
        StateCache {
            entries: Mutex::new(StateEntries::default()),
            byte_budget,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// The state key for a retained analysis: the circuit-cache key
    /// extended with the full engine configuration, so the same circuit
    /// under different knobs retains distinct states.
    pub fn key_for(circuit_key: u64, config: &pep_core::AnalysisConfig) -> u64 {
        fnv1a_extend(
            fnv1a_extend(FNV_OFFSET, &circuit_key.to_le_bytes()),
            serde::json::to_string(config).as_bytes(),
        )
    }

    /// Base-key hits (delta requests that found their state).
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Base-key misses (delta requests answered 404).
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// States evicted to stay under the byte budget.
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// Retained states right now.
    pub fn len(&self) -> usize {
        self.entries.lock().expect("state cache lock").map.len()
    }

    /// Whether no states are retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total resident bytes across retained states (as measured at
    /// insert time).
    pub fn resident_bytes(&self) -> usize {
        let entries = self.entries.lock().expect("state cache lock");
        entries.map.values().map(|(_, bytes)| bytes).sum()
    }

    /// Inserts (or refreshes) a retained state, then evicts cold
    /// entries until the byte budget holds. Returns the entry actually
    /// cached (an earlier insert under the same key wins, so concurrent
    /// retains of the same analysis share one state) plus the evicted
    /// entries, so the caller can snapshot them to disk *outside* the
    /// cache lock.
    pub fn insert(
        &self,
        state: Arc<RetainedState>,
        bytes: usize,
    ) -> (Arc<RetainedState>, Vec<Arc<RetainedState>>) {
        let key = state.key;
        let mut entries = self.entries.lock().expect("state cache lock");
        let kept = match entries.map.get(&key) {
            Some((existing, _)) => Arc::clone(existing),
            None => {
                entries.map.insert(key, (Arc::clone(&state), bytes));
                state
            }
        };
        entries.order.retain(|k| *k != key);
        entries.order.push_back(key);
        let mut total: usize = entries.map.values().map(|(_, b)| b).sum();
        let mut evicted = Vec::new();
        while total > self.byte_budget && entries.map.len() > 1 {
            let Some(coldest) = entries.order.pop_front() else {
                break;
            };
            if let Some((state, b)) = entries.map.remove(&coldest) {
                total -= b;
                self.evictions.fetch_add(1, Ordering::Relaxed);
                evicted.push(state);
            }
        }
        (kept, evicted)
    }

    /// Every retained state, coldest first — the drain path snapshots
    /// them all so a restart can rehydrate without cold re-analysis.
    pub fn entries_lru(&self) -> Vec<Arc<RetainedState>> {
        let entries = self.entries.lock().expect("state cache lock");
        entries
            .order
            .iter()
            .filter_map(|k| entries.map.get(k).map(|(s, _)| Arc::clone(s)))
            .collect()
    }

    /// Looks up a retained state by its key, marking it most recently
    /// used on a hit.
    pub fn get(&self, key: u64) -> Option<Arc<RetainedState>> {
        let mut entries = self.entries.lock().expect("state cache lock");
        match entries.map.get(&key) {
            Some((state, _)) => {
                let state = Arc::clone(state);
                entries.order.retain(|k| *k != key);
                entries.order.push_back(key);
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(state)
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_matches_reference_vectors() {
        // Standard FNV-1a 64 test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn hit_shares_the_same_parse() {
        let cache = CircuitCache::new(4);
        let spec = CircuitSpec::Sample("c17".into());
        let a = cache.get_or_parse(&spec, 1).unwrap();
        let b = cache.get_or_parse(&spec, 1).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "second lookup is a hit");
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 1);
        // A different seed is a different circuit.
        let c = cache.get_or_parse(&spec, 2).unwrap();
        assert!(!Arc::ptr_eq(&a, &c));
        assert_eq!(cache.misses(), 2);
    }

    #[test]
    fn eviction_is_fifo_and_bounded() {
        let cache = CircuitCache::new(2);
        let spec = CircuitSpec::Sample("c17".into());
        for seed in 0..5 {
            cache.get_or_parse(&spec, seed).unwrap();
            assert!(cache.len() <= 2);
        }
        // Seed 0 was evicted long ago → re-parsing is a miss.
        let before = cache.misses();
        cache.get_or_parse(&spec, 0).unwrap();
        assert_eq!(cache.misses(), before + 1);
        // Most recent seed is still cached.
        let before = cache.hits();
        cache.get_or_parse(&spec, 4).unwrap();
        assert_eq!(cache.hits(), before + 1);
    }

    fn retained(seed: u64) -> (Arc<RetainedState>, usize) {
        let spec = CircuitSpec::Sample("c17".into());
        let netlist = build_netlist(&spec).unwrap();
        let timing = Timing::annotate(&netlist, &DelayModel::dac2001(seed));
        let config = pep_core::AnalysisConfig::default();
        let analyzer = pep_core::IncrementalAnalyzer::new(&netlist, &timing, &config).unwrap();
        let bytes = analyzer.resident_bytes();
        let circuit_key = CircuitCache::key_for(&spec, seed);
        let key = StateCache::key_for(circuit_key, &config);
        (
            Arc::new(RetainedState {
                key,
                circuit: "c17".into(),
                circuit_text: spec.cache_text(),
                seed,
                circuit_key,
                analyzer: Mutex::new(analyzer),
            }),
            bytes,
        )
    }

    #[test]
    fn state_keys_cover_circuit_and_config() {
        let config = pep_core::AnalysisConfig::default();
        let tweaked = pep_core::AnalysisConfig {
            min_event_prob: 1e-3,
            ..config.clone()
        };
        assert_ne!(
            StateCache::key_for(7, &config),
            StateCache::key_for(8, &config),
            "different circuits retain different states"
        );
        assert_ne!(
            StateCache::key_for(7, &config),
            StateCache::key_for(7, &tweaked),
            "different knobs retain different states"
        );
    }

    #[test]
    fn state_cache_is_lru_over_a_byte_budget() {
        let (a, a_bytes) = retained(1);
        let (b, b_bytes) = retained(2);
        let (c, _) = retained(3);
        // Budget fits two retained c17 states but not three.
        let cache = StateCache::new(a_bytes + b_bytes + b_bytes / 2);
        cache.insert(Arc::clone(&a), a_bytes);
        cache.insert(Arc::clone(&b), b_bytes);
        assert_eq!(cache.len(), 2);
        assert!(cache.resident_bytes() >= a_bytes + b_bytes);
        // Touch `a` so `b` is coldest, then overflow the budget.
        assert!(cache.get(a.key).is_some());
        cache.insert(Arc::clone(&c), b_bytes);
        assert_eq!(cache.evictions(), 1);
        assert!(cache.get(b.key).is_none(), "coldest state was evicted");
        assert!(cache.get(a.key).is_some());
        assert!(cache.get(c.key).is_some());
        assert_eq!(cache.misses(), 1);
        // A tiny budget still keeps the newest entry.
        let tiny = StateCache::new(0);
        tiny.insert(Arc::clone(&a), a_bytes);
        tiny.insert(Arc::clone(&b), b_bytes);
        assert_eq!(tiny.len(), 1);
        assert!(tiny.get(b.key).is_some());
    }

    #[test]
    fn parse_errors_are_not_cached() {
        let cache = CircuitCache::new(2);
        let bad = CircuitSpec::Bench {
            name: "bad".into(),
            text: "y = AND(".into(),
        };
        assert!(cache.get_or_parse(&bad, 1).is_err());
        assert!(cache.is_empty());
    }
}
