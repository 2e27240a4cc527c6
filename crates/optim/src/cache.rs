//! Embedding-cache simulation: where the 6.7× caching gain comes from.
//!
//! The paper's platform-level caching pre-computes embeddings for frequent
//! translation requests and serves them from DRAM/flash instead of
//! recomputing on CPUs. This module *derives* the gain: an LRU or LFU cache
//! is driven by a zipfian request stream, and the measured hit rate is
//! converted to an energy gain via the cost ratio between recomputing a
//! result and fetching it from cache.

use rand::Rng;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use sustain_core::stats::Zipf;
use sustain_core::units::{Energy, Fraction};

/// A multiplicative hasher for the `u64` cache keys: one `wrapping_mul`
/// instead of SipHash's full rounds. The cache never iterates its map, so
/// hash quality only affects bucket spread, and key-dependent behavior
/// stays deterministic regardless.
#[derive(Debug, Default)]
struct KeyHasher(u64);

impl Hasher for KeyHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        // Fallback for non-u64 field hashing (unused by `u64` keys).
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn write_u64(&mut self, n: u64) {
        // Fibonacci hashing: multiply by 2^64/φ to spread consecutive ids.
        self.0 = n.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }
}

/// Cache replacement policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CachePolicy {
    /// Least-recently-used eviction.
    Lru,
    /// Least-frequently-used eviction.
    Lfu,
}

/// Sentinel for an absent slot or class link.
const NIL: usize = usize::MAX;

/// One resident entry: its key, its frequency class, and its neighbours
/// within that class (older towards `prev`, newer towards `next`).
#[derive(Debug, Clone, Copy)]
struct Slot {
    key: u64,
    class: usize,
    prev: usize,
    next: usize,
}

/// All resident entries sharing one use count, oldest at `head`; classes
/// link to each other in ascending `count`.
#[derive(Debug, Clone, Copy)]
struct Class {
    count: u64,
    head: usize,
    tail: usize,
    prev: usize,
    next: usize,
}

/// A fixed-capacity key cache (keys are item ids).
///
/// Every operation is O(1). Resident entries live in a slab of slots
/// grouped into *frequency classes*: one doubly-linked list of slots per
/// use count, the classes themselves linked in ascending count. A hit moves
/// its entry to the tail of the class for `count + 1` (LFU) or to the tail
/// of the single class (LRU, where every entry keeps count 1); a miss
/// appends to the count-1 class. Since an entry only ever joins a class at
/// the current access, each class is ordered by last use, so the head of
/// the first class is the minimum `(count, last)` — exactly the victim a
/// full scan would pick (no two entries share a last use, so no tie
/// remains to break).
/// The `frequency_classes_match_full_scan` test holds the two to per-access
/// equality. Memory is `capacity` slots plus at most `capacity + 1`
/// classes, reused through a free list.
#[derive(Debug, Clone)]
pub struct KeyCache {
    policy: CachePolicy,
    capacity: usize,
    /// id → slot index
    index: HashMap<u64, usize, BuildHasherDefault<KeyHasher>>,
    slots: Vec<Slot>,
    classes: Vec<Class>,
    /// The lowest-count class (the next victim is its head), or `NIL`.
    first: usize,
    /// Head of the free-class list, chained through `Class::next`.
    free: usize,
    hits: u64,
    misses: u64,
}

impl KeyCache {
    /// Creates a cache.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(policy: CachePolicy, capacity: usize) -> KeyCache {
        assert!(capacity > 0, "cache capacity must be positive");
        KeyCache {
            policy,
            capacity,
            index: HashMap::with_capacity_and_hasher(capacity, BuildHasherDefault::default()),
            slots: Vec::with_capacity(capacity),
            classes: Vec::new(),
            first: NIL,
            free: NIL,
            hits: 0,
            misses: 0,
        }
    }

    /// Accesses a key; returns `true` on hit.
    pub fn access(&mut self, key: u64) -> bool {
        if let Some(&slot) = self.index.get(&key) {
            self.hits += 1;
            self.promote(slot);
            return true;
        }
        self.misses += 1;
        let slot = if self.slots.len() < self.capacity {
            self.slots.push(Slot {
                key,
                class: NIL,
                prev: NIL,
                next: NIL,
            });
            self.slots.len() - 1
        } else {
            let victim = self.classes[self.first].head;
            self.index.remove(&self.slots[victim].key);
            self.detach(victim);
            self.slots[victim].key = key;
            victim
        };
        self.index.insert(key, slot);
        let class = if self.first != NIL && self.classes[self.first].count == 1 {
            self.first
        } else {
            self.new_class(1, NIL, self.first)
        };
        self.append(class, slot);
        false
    }

    /// Moves a hit entry to the tail of its next class.
    fn promote(&mut self, slot: usize) {
        let class = self.slots[slot].class;
        let target = match self.policy {
            CachePolicy::Lru => {
                if self.classes[class].tail == slot {
                    return;
                }
                class
            }
            CachePolicy::Lfu => {
                let Class {
                    count,
                    head,
                    tail,
                    next,
                    ..
                } = self.classes[class];
                if next != NIL && self.classes[next].count == count + 1 {
                    next
                } else if head == tail {
                    // A sole member takes its class up with it: the class
                    // list stays ascending since `next` counts higher still.
                    self.classes[class].count += 1;
                    return;
                } else {
                    self.new_class(count + 1, class, next)
                }
            }
        };
        self.detach(slot);
        self.append(target, slot);
    }

    /// Links a new empty class between `prev` and `next` (either may be
    /// `NIL`), reusing a freed class when one is available.
    fn new_class(&mut self, count: u64, prev: usize, next: usize) -> usize {
        let class = Class {
            count,
            head: NIL,
            tail: NIL,
            prev,
            next,
        };
        let id = if self.free == NIL {
            self.classes.push(class);
            self.classes.len() - 1
        } else {
            let id = self.free;
            self.free = self.classes[id].next;
            self.classes[id] = class;
            id
        };
        match prev {
            NIL => self.first = id,
            p => self.classes[p].next = id,
        }
        if next != NIL {
            self.classes[next].prev = id;
        }
        id
    }

    /// Appends a detached slot at the tail (newest end) of `class`.
    fn append(&mut self, class: usize, slot: usize) {
        let tail = self.classes[class].tail;
        self.slots[slot].class = class;
        self.slots[slot].prev = tail;
        self.slots[slot].next = NIL;
        match tail {
            NIL => self.classes[class].head = slot,
            t => self.slots[t].next = slot,
        }
        self.classes[class].tail = slot;
    }

    /// Unlinks a slot from its class, freeing the class if it empties.
    fn detach(&mut self, slot: usize) {
        let Slot {
            class, prev, next, ..
        } = self.slots[slot];
        match prev {
            NIL => self.classes[class].head = next,
            p => self.slots[p].next = next,
        }
        match next {
            NIL => self.classes[class].tail = prev,
            n => self.slots[n].prev = prev,
        }
        if self.classes[class].head != NIL {
            return;
        }
        let Class { prev, next, .. } = self.classes[class];
        match prev {
            NIL => self.first = next,
            p => self.classes[p].next = next,
        }
        if next != NIL {
            self.classes[next].prev = prev;
        }
        self.classes[class].next = self.free;
        self.free = class;
    }

    /// Hits so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Misses so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Hit rate so far (0 before any access).
    pub fn hit_rate(&self) -> Fraction {
        let total = self.hits + self.misses;
        if total == 0 {
            return Fraction::ZERO;
        }
        Fraction::saturating(self.hits as f64 / total as f64)
    }

    /// Number of resident entries.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }
}

/// The energy model of a cached serving path.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CacheEnergyModel {
    /// Energy to recompute one result (CPU inference).
    pub miss_energy: Energy,
    /// Energy to serve one result from cache (DRAM/flash fetch).
    pub hit_energy: Energy,
}

impl CacheEnergyModel {
    /// The paper-calibrated default: a CPU recompute costs ~100× a cache
    /// fetch (full Transformer encode vs a DRAM read + network send).
    pub fn paper_default() -> CacheEnergyModel {
        CacheEnergyModel {
            miss_energy: Energy::from_joules(crate::constants::CACHE_MISS_ENERGY_J),
            hit_energy: Energy::from_joules(crate::constants::CACHE_HIT_ENERGY_J),
        }
    }

    /// Mean energy per request at a hit rate.
    pub fn energy_per_request(&self, hit_rate: Fraction) -> Energy {
        self.hit_energy * hit_rate.value() + self.miss_energy * hit_rate.complement().value()
    }

    /// Efficiency gain vs the uncached baseline at a hit rate.
    pub fn gain(&self, hit_rate: Fraction) -> f64 {
        self.miss_energy / self.energy_per_request(hit_rate)
    }
}

/// The outcome of a cache simulation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CacheSimResult {
    /// Measured hit rate.
    pub hit_rate: Fraction,
    /// Energy per request with the cache.
    pub energy_per_request: Energy,
    /// Efficiency gain over the uncached baseline.
    pub gain: f64,
}

/// Drives a cache with a zipfian request stream and reports the energy gain.
///
/// Instrumented for `sustain-prof`: the run records an
/// `optim.cache.simulate` span on the ambient [`sustain_obs::handle`] with
/// two inner phases — `optim.cache.sample` (drawing the zipfian request
/// stream) and `optim.cache.access` (driving the cache) — each crediting
/// one work unit per request to the work counter. The RNG draw sequence is
/// identical whether or not a recorder is installed, so figure outputs do
/// not depend on observability.
///
/// # Panics
///
/// Panics if `requests` is zero or `universe` exceeds `u32::MAX`.
pub fn simulate_cache<R: Rng + ?Sized>(
    rng: &mut R,
    policy: CachePolicy,
    capacity: usize,
    universe: usize,
    zipf_exponent: f64,
    requests: usize,
    energy: CacheEnergyModel,
) -> CacheSimResult {
    assert!(requests > 0, "need at least one request");
    assert!(
        u32::try_from(universe).is_ok(),
        "universe must fit in u32 ranks"
    );
    let obs = sustain_obs::handle();
    // Opened before the Zipf table is built, so its construction is
    // attributed to the simulation rather than to the caller.
    let _sim = obs.span("optim.cache.simulate");
    // lint:allow(panic-discipline) documented panic on invalid zipf parameters
    let zipf = Zipf::new(universe, zipf_exponent).expect("valid zipf parameters");
    // Ranks are stored as `u32` (checked above), halving the request buffer.
    let keys: Vec<u32> = {
        let _sample = obs.span("optim.cache.sample");
        let keys = (0..requests)
            .map(|_| zipf.sample_rank(rng) as u32)
            .collect();
        obs.add_work(requests as u64);
        keys
    };
    // Free the table before the cache is built, so the two never coexist.
    drop(zipf);
    let mut cache = KeyCache::new(policy, capacity);
    {
        let _access = obs.span("optim.cache.access");
        for key in keys {
            cache.access(u64::from(key));
        }
        obs.add_work(requests as u64);
    }
    let hit_rate = cache.hit_rate();
    CacheSimResult {
        hit_rate,
        energy_per_request: energy.energy_per_request(hit_rate),
        gain: energy.gain(hit_rate),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn lru_basics() {
        let mut c = KeyCache::new(CachePolicy::Lru, 2);
        assert!(!c.access(1));
        assert!(!c.access(2));
        assert!(c.access(1)); // hit
        assert!(!c.access(3)); // evicts 2 (LRU)
        assert!(c.access(1));
        assert!(!c.access(2)); // 2 was evicted
        assert_eq!(c.len(), 2);
        assert!(!c.is_empty());
    }

    #[test]
    fn lfu_keeps_hot_keys() {
        let mut c = KeyCache::new(CachePolicy::Lfu, 2);
        c.access(1);
        c.access(1);
        c.access(1);
        c.access(2);
        c.access(3); // evicts 2 (count 1) not 1 (count 3)
        assert!(c.access(1), "hot key must survive");
        assert!(!c.access(2));
    }

    #[test]
    fn hit_rate_zero_before_accesses() {
        let c = KeyCache::new(CachePolicy::Lru, 4);
        assert_eq!(c.hit_rate(), Fraction::ZERO);
    }

    #[test]
    fn zipfian_traffic_yields_high_hit_rate_with_small_cache() {
        // 1% of the universe cached covers most zipfian traffic.
        let mut rng = StdRng::seed_from_u64(21);
        let result = simulate_cache(
            &mut rng,
            CachePolicy::Lru,
            1_000,
            100_000,
            1.1,
            200_000,
            CacheEnergyModel::paper_default(),
        );
        assert!(
            result.hit_rate.value() > 0.5,
            "hit rate {}",
            result.hit_rate
        );
    }

    #[test]
    fn paper_gain_band_is_reachable() {
        // The Fig 7 caching gain (6.7×) emerges for a realistic configuration.
        let mut rng = StdRng::seed_from_u64(22);
        let result = simulate_cache(
            &mut rng,
            CachePolicy::Lfu,
            5_000,
            100_000,
            1.2,
            300_000,
            CacheEnergyModel::paper_default(),
        );
        assert!(
            result.gain > 4.0 && result.gain < 12.0,
            "gain {} (hit rate {})",
            result.gain,
            result.hit_rate
        );
    }

    #[test]
    fn lfu_beats_lru_on_stable_zipf() {
        let energy = CacheEnergyModel::paper_default();
        let lru = simulate_cache(
            &mut StdRng::seed_from_u64(33),
            CachePolicy::Lru,
            500,
            50_000,
            1.0,
            150_000,
            energy,
        );
        let lfu = simulate_cache(
            &mut StdRng::seed_from_u64(33),
            CachePolicy::Lfu,
            500,
            50_000,
            1.0,
            150_000,
            energy,
        );
        assert!(
            lfu.hit_rate >= lru.hit_rate,
            "lfu {} < lru {}",
            lfu.hit_rate,
            lru.hit_rate
        );
    }

    #[test]
    fn gain_increases_with_hit_rate() {
        let m = CacheEnergyModel::paper_default();
        let g50 = m.gain(Fraction::saturating(0.5));
        let g90 = m.gain(Fraction::saturating(0.9));
        let g0 = m.gain(Fraction::ZERO);
        assert!((g0 - 1.0).abs() < 1e-9);
        assert!(g90 > g50 && g50 > g0);
    }

    #[test]
    fn energy_per_request_interpolates() {
        let m = CacheEnergyModel::paper_default();
        let mid = m.energy_per_request(Fraction::saturating(0.5));
        assert!((mid.as_joules() - 10.1).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn rejects_zero_capacity() {
        let _ = KeyCache::new(CachePolicy::Lru, 0);
    }

    impl KeyCache {
        /// Resident `(key, count)` pairs from the next victim onwards.
        fn eviction_order(&self) -> Vec<(u64, u64)> {
            let mut order = Vec::with_capacity(self.len());
            let mut class = self.first;
            while class != NIL {
                let mut slot = self.classes[class].head;
                while slot != NIL {
                    order.push((self.slots[slot].key, self.classes[class].count));
                    slot = self.slots[slot].next;
                }
                class = self.classes[class].next;
            }
            order
        }
    }

    #[test]
    #[should_panic(expected = "universe must fit in u32")]
    fn rejects_universe_beyond_u32_ranks() {
        let _ = simulate_cache(
            &mut StdRng::seed_from_u64(1),
            CachePolicy::Lru,
            4,
            u32::MAX as usize + 1,
            1.0,
            10,
            CacheEnergyModel::paper_default(),
        );
    }

    /// A full O(capacity) scan per eviction: the executable spec the
    /// frequency classes are held to.
    struct ScanCache {
        policy: CachePolicy,
        capacity: usize,
        entries: std::collections::BTreeMap<u64, (u64, u64)>,
        tick: u64,
    }

    impl ScanCache {
        fn new(policy: CachePolicy, capacity: usize) -> ScanCache {
            ScanCache {
                policy,
                capacity,
                entries: std::collections::BTreeMap::new(),
                tick: 0,
            }
        }

        fn access(&mut self, key: u64) -> bool {
            self.tick += 1;
            if let Some(entry) = self.entries.get_mut(&key) {
                entry.0 = self.tick;
                entry.1 += 1;
                return true;
            }
            if self.entries.len() >= self.capacity {
                let victim = match self.policy {
                    CachePolicy::Lru => self
                        .entries
                        .iter()
                        .min_by_key(|(_, (last, _))| *last)
                        .map(|(k, _)| *k),
                    CachePolicy::Lfu => self
                        .entries
                        .iter()
                        .min_by_key(|(_, (last, count))| (*count, *last))
                        .map(|(k, _)| *k),
                };
                if let Some(v) = victim {
                    self.entries.remove(&v);
                }
            }
            self.entries.insert(key, (self.tick, 1));
            false
        }

        /// Resident `(key, count)` pairs sorted by eviction priority.
        fn eviction_order(&self) -> Vec<(u64, u64)> {
            let mut order: Vec<(u64, u64, u64)> = self
                .entries
                .iter()
                .map(|(&key, &(last, count))| (key, last, count))
                .collect();
            match self.policy {
                CachePolicy::Lru => order.sort_by_key(|&(_, last, _)| last),
                CachePolicy::Lfu => order.sort_by_key(|&(_, last, count)| (count, last)),
            }
            order
                .into_iter()
                .map(|(key, _, count)| (key, count))
                .collect()
        }
    }

    proptest::proptest! {
        #[test]
        fn frequency_classes_match_full_scan(
            lfu in proptest::arbitrary::any::<bool>(),
            capacity in 1usize..64,
            shape in 0u8..5,
            raw in proptest::collection::vec(proptest::arbitrary::any::<u64>(), 0..1_500),
        ) {
            let policy = if lfu { CachePolicy::Lfu } else { CachePolicy::Lru };
            let cap = capacity as u64;
            let mut fast = KeyCache::new(policy, capacity);
            let mut spec = ScanCache::new(policy, capacity);
            for (step, &r) in raw.iter().enumerate() {
                let key = match shape {
                    0 => r % (cap + 1),
                    1 => r % (2 * cap + 3),
                    2 => r % 200,
                    3 => 7,
                    _ => step as u64 % (cap + 1),
                };
                proptest::prop_assert_eq!(
                    fast.access(key),
                    spec.access(key),
                    "{:?} cap {} shape {} diverged at step {} (key {})",
                    policy,
                    capacity,
                    shape,
                    step,
                    key
                );
                let (fast_order, spec_order) = (fast.eviction_order(), spec.eviction_order());
                match policy {
                    // LRU keeps every entry in the count-1 class: only the
                    // order of keys is state.
                    CachePolicy::Lru => proptest::prop_assert!(
                        fast_order.iter().map(|e| e.0).eq(spec_order.iter().map(|e| e.0)),
                        "LRU order differs at step {}: {:?} vs {:?}",
                        step,
                        fast_order,
                        spec_order
                    ),
                    CachePolicy::Lfu => proptest::prop_assert_eq!(
                        fast_order,
                        spec_order,
                        "LFU resident (key, count) order differs at step {}",
                        step
                    ),
                }
            }
            proptest::prop_assert_eq!(fast.len(), spec.entries.len());
        }
    }

    #[test]
    fn frequency_class_memory_stays_bounded() {
        for policy in [CachePolicy::Lru, CachePolicy::Lfu] {
            let mut c = KeyCache::new(policy, 8);
            let mut rng = StdRng::seed_from_u64(5);
            for _ in 0..100_000 {
                c.access(rng.gen_index(40) as u64);
            }
            assert_eq!(c.len(), 8);
            assert!(c.slots.len() <= 8, "{} slots", c.slots.len());
            assert!(c.classes.len() <= 9, "{} classes", c.classes.len());
        }
    }

    #[test]
    fn instrumented_simulation_records_phases() {
        use sustain_obs::ObsConfig;
        let obs = ObsConfig::enabled().build();
        let events = sustain_obs::with_task_handle(&obs, || {
            let mut rng = StdRng::seed_from_u64(9);
            let _ = simulate_cache(
                &mut rng,
                CachePolicy::Lru,
                64,
                1_000,
                1.1,
                500,
                CacheEnergyModel::paper_default(),
            );
            obs.events()
        });
        let names: Vec<&str> = events
            .iter()
            .filter_map(|e| match e {
                sustain_obs::EventRecord::Span { name, .. } => Some(*name),
                _ => None,
            })
            .collect();
        assert_eq!(
            names,
            [
                "optim.cache.sample",
                "optim.cache.access",
                "optim.cache.simulate"
            ],
            "spans record in completion order"
        );
    }
}
