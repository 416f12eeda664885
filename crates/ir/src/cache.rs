//! The plan-owned program-cost memo.
//!
//! The analytic backend prices one layer of one sample by lowering the
//! layer symbolically at the sample's realized firing rates and
//! integrating the resulting [`StreamProgram`](crate::StreamProgram).
//! Serving the same sample population again realizes the same rates, so a
//! compiled plan memoizes the integrated cost of every binding it has
//! priced:
//!
//! * a [`ProgramKey`] identifies one binding of one layer — kernel class,
//!   storage format and the [`SparsityBucket`] of realized firing rates;
//! * [`ProgramCache::get_or_emit`] returns the memoized [`ServedCost`] on
//!   a hit, and otherwise runs the caller's lower-and-integrate closure and
//!   caches its result while the cache is below capacity.
//!
//! The cache holds the [`ServedCost`] projection of each integrated
//! [`ProgramCost`] — the figures serving reads — never the programs they
//! were integrated from, and is filled only by serving lookups. It is
//! internally synchronized, so a `Plan` can share one instance across all
//! the worker threads of its sessions. The map is split into 16 shards,
//! each on cache lines of its own with its own `RwLock` and hit counter.
//! A key folds its fields into one word; an unkeyed multiply of that word
//! picks the shard, and a multiply keyed per cache hashes it within the
//! shard's map. Within a shard, hits take a read lock, and only the cold
//! path writes; two threads hitting keys of different shards share no
//! written cache line.

use std::collections::hash_map::{Entry, RandomState};
use std::collections::HashMap;
use std::hash::{BuildHasher, Hash, Hasher};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::RwLock;

use snitch_arch::fp::FpFormat;

use crate::cost::ProgramCost;

/// The realized sparsity of one symbolic layer binding: the exact bit
/// patterns of the clamped input and output firing rates.
///
/// Buckets are keyed at full `f64` resolution — the cache must serve
/// bit-identical costs, so two bindings share a bucket exactly when
/// their realized rates are equal. Coarser bucketing would trade report
/// fidelity for hit rate; the serving steady state (repeated requests over
/// a fixed sample population) hits at full resolution already.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SparsityBucket {
    input_bits: u64,
    output_bits: u64,
}

impl SparsityBucket {
    /// The bucket of a `(input, output)` firing-rate pair. Rates are
    /// clamped to `0.0..=1.0` first, exactly like the emitters clamp them.
    pub fn of(input_rate: f64, output_rate: f64) -> Self {
        SparsityBucket {
            input_bits: input_rate.clamp(0.0, 1.0).to_bits(),
            output_bits: output_rate.clamp(0.0, 1.0).to_bits(),
        }
    }

    /// The clamped input firing rate this bucket stands for.
    pub fn input_rate(&self) -> f64 {
        f64::from_bits(self.input_bits)
    }

    /// The clamped output firing rate this bucket stands for.
    pub fn output_rate(&self) -> f64 {
        f64::from_bits(self.output_bits)
    }
}

/// Cache key of one priced binding: which layer, which kernel class (the
/// emitting crate's variant discriminator), which storage format, which
/// sparsity bucket.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProgramKey {
    /// Layer index within the network.
    pub layer: u32,
    /// Kernel-class discriminator assigned by the emitter crate (e.g. the
    /// code variant); this crate only requires it to be stable.
    pub class: u32,
    /// Storage format of the lowering.
    pub format: FpFormat,
    /// Realized sparsity of the binding.
    pub bucket: SparsityBucket,
}

impl ProgramKey {
    /// Every field folded into one word. The realized rates' low mantissa
    /// bits are what varies between bindings of one layer, so every field
    /// feeds it; equal keys fold equally.
    fn fold(&self) -> u64 {
        (u64::from(self.layer) << 40)
            ^ (u64::from(self.class) << 48)
            ^ ((self.format as u64) << 56)
            ^ self.bucket.input_bits
            ^ self.bucket.output_bits.rotate_left(32)
    }
}

impl Hash for ProgramKey {
    /// One word, the fold, which the shard maps' keyed hasher finishes.
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.fold());
    }
}

/// The part of a [`ProgramCost`] that serving reads: the figures the
/// analytic backend turns into a layer sample and its energy. A cache
/// entry holds this 48-byte projection instead of the 112-byte cost, so a
/// resident binding, key and value, takes 80 bytes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServedCost {
    /// [`ProgramCost::compute_cycles`].
    pub compute_cycles: u64,
    /// [`ProgramCost::int_instrs`].
    pub int_instrs: f64,
    /// [`ProgramCost::flops`].
    pub flops: f64,
    /// [`ProgramCost::dma_bytes_in`] plus [`ProgramCost::dma_bytes_out`].
    pub dma_bytes: u64,
    /// [`ProgramCost::fpu_utilization`].
    pub fpu_utilization: f64,
    /// [`ProgramCost::ipc`].
    pub ipc: f64,
}

impl From<&ProgramCost> for ServedCost {
    fn from(cost: &ProgramCost) -> Self {
        ServedCost {
            compute_cycles: cost.compute_cycles,
            int_instrs: cost.int_instrs,
            flops: cost.flops,
            dma_bytes: cost.dma_bytes_in + cost.dma_bytes_out,
            fpu_utilization: cost.fpu_utilization,
            ipc: cost.ipc,
        }
    }
}

/// The [`BuildHasher`] of one cache's shard maps: one random word, drawn
/// from [`RandomState`] when the cache is built.
#[derive(Debug, Clone, Copy)]
struct KeyedFold {
    key: u64,
}

impl KeyedFold {
    /// Odd, with its set bits spread over the word (wyhash's first secret).
    const MULTIPLIER: u64 = 0xA076_1D64_78BD_642F;

    fn random() -> Self {
        KeyedFold { key: RandomState::new().build_hasher().finish() }
    }
}

impl BuildHasher for KeyedFold {
    type Hasher = FoldHasher;

    fn build_hasher(&self) -> FoldHasher {
        FoldHasher { key: self.key, fold: 0 }
    }
}

/// The hasher of a [`KeyedFold`]: [`ProgramKey`] writes its one-word fold,
/// and `finish` XORs in the cache's key and mixes the word by one
/// 64×64→128-bit multiply, folding the product's halves together, so every
/// bit of the fold reaches both the low bits that pick a bucket and the
/// high bits that tag it. A binding's rates follow from a sample index a
/// client chooses; with the per-cache key, no client can work out ahead of
/// time which indices share a bucket.
#[derive(Debug, Clone, Copy)]
struct FoldHasher {
    key: u64,
    fold: u64,
}

impl Hasher for FoldHasher {
    fn write(&mut self, bytes: &[u8]) {
        // `ProgramKey` writes one word; anything else still hashes, a byte
        // at a time.
        for &byte in bytes {
            self.write_u64(u64::from(byte));
        }
    }

    fn write_u64(&mut self, word: u64) {
        self.fold = self.fold.rotate_left(8) ^ word;
    }

    fn finish(&self) -> u64 {
        let product = u128::from(self.fold ^ self.key) * u128::from(KeyedFold::MULTIPLIER);
        (product as u64) ^ (product >> 64) as u64
    }
}

/// Monotonic cache statistics (since construction).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheCounters {
    /// Lookups served from a memoized cost.
    pub hits: u64,
    /// Always zero: the cache has no tier between a hit and an emit. The
    /// field stays so that counter readers built against the former
    /// three-tier cache keep compiling.
    pub rebinds: u64,
    /// Lookups that lowered and integrated a program.
    pub emits: u64,
}

impl CacheCounters {
    /// Total lookups.
    pub fn lookups(&self) -> u64 {
        self.hits + self.emits
    }
}

/// Number of shards a [`ProgramCache`] splits its map into. A constant,
/// not an option: enough that two serving threads rarely look up keys of
/// the same shard, few enough that the shards' counters sum cheaply.
const SHARDS: usize = 16;
const _: () = assert!(SHARDS.is_power_of_two(), "the shard index is the top bits of a product");

/// One shard of a [`ProgramCache`]: its slice of the map and its own hit
/// counter, aligned to 128 bytes (two cache lines, covering adjacent-line
/// prefetch) so that a hit writes no line another shard uses.
#[derive(Debug)]
#[repr(align(128))]
struct Shard {
    costs: RwLock<HashMap<ProgramKey, ServedCost, KeyedFold>>,
    hits: AtomicU64,
}

/// Thread-safe memo of integrated program costs, owned by a compiled plan.
///
/// The cache is *bounded*: once [`ProgramCache::capacity`] costs are
/// resident, further cold bindings are priced and returned without being
/// inserted, so a plan serving an unbounded stream of fresh sparsity
/// buckets (e.g. ever-new sample indices under a jittered profile) holds
/// at most `capacity` costs — correctness is unaffected, only those
/// bindings stay cold. The bound is strict across the cache's shards: one
/// resident counter, written only on the cold path, hands out the slots.
#[derive(Debug)]
pub struct ProgramCache {
    shards: [Shard; SHARDS],
    capacity: usize,
    resident: AtomicUsize,
    emits: AtomicU64,
}

impl Default for ProgramCache {
    fn default() -> Self {
        Self::bounded(Self::DEFAULT_CAPACITY)
    }
}

impl ProgramCache {
    /// Default resident-cost bound: generous for any realistic serving
    /// population (64Ki bindings ≈ thousands of samples × layers) while
    /// capping worst-case memory for ever-fresh request streams.
    pub const DEFAULT_CAPACITY: usize = 1 << 16;

    /// An empty cache with the default capacity.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty cache bounded to at most `capacity` resident costs
    /// (clamped to at least 1).
    pub fn bounded(capacity: usize) -> Self {
        let hasher = KeyedFold::random();
        let shard =
            || Shard { costs: RwLock::new(HashMap::with_hasher(hasher)), hits: AtomicU64::new(0) };
        ProgramCache {
            // `SHARDS` calls written out, so the 2 KiB array is built in
            // place: `std::array::from_fn` made a cache 4x slower to build.
            #[rustfmt::skip]
            shards: [
                shard(), shard(), shard(), shard(), shard(), shard(), shard(), shard(),
                shard(), shard(), shard(), shard(), shard(), shard(), shard(), shard(),
            ],
            capacity: capacity.max(1),
            resident: AtomicUsize::new(0),
            emits: AtomicU64::new(0),
        }
    }

    /// Maximum number of resident costs.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of costs currently cached.
    pub fn len(&self) -> usize {
        self.resident.load(Ordering::Relaxed)
    }

    /// Whether the cache holds no costs.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Snapshot of the hit/emit counters.
    pub fn counters(&self) -> CacheCounters {
        CacheCounters {
            hits: self.shards.iter().map(|shard| shard.hits.load(Ordering::Relaxed)).sum(),
            rebinds: 0,
            emits: self.emits.load(Ordering::Relaxed),
        }
    }

    /// The serving lookup: return the memoized cost for `key` if present
    /// (one hit); otherwise run `emit`, cache its cost while below capacity
    /// and return it (one emit).
    pub fn get_or_emit(&self, key: ProgramKey, emit: impl FnOnce() -> ServedCost) -> ServedCost {
        let shard = self.shard(&key);
        // Never poisoned: under this guard only the map's lookup runs, and
        // neither `KeyedFold` nor `ProgramKey`'s `Eq` can panic.
        if let Some(&cost) = shard.costs.read().expect("program cache poisoned").get(&key) {
            shard.hits.fetch_add(1, Ordering::Relaxed);
            return cost;
        }
        // `emit` runs with no guard held, so its panic poisons nothing
        // (`a_panicking_emit_poisons_no_lock`).
        let cost = emit();
        self.emits.fetch_add(1, Ordering::Relaxed);
        // Never poisoned: under this guard run only the entry lookup (the
        // same hasher and `Eq`), the slot reservation and the insert, none
        // of which can panic; a failed allocation aborts, it does not unwind.
        let mut costs = shard.costs.write().expect("program cache poisoned");
        // A racing emit of the same key may have inserted it meanwhile:
        // insert only if still absent, and only into a reserved slot.
        if let Entry::Vacant(slot) = costs.entry(key) {
            if self.reserve() {
                slot.insert(cost);
            }
        }
        cost
    }

    /// The shard `key` lives in: the top bits of its fold times a fixed
    /// odd constant. Unkeyed, so a key's shard is the same in every cache.
    fn shard(&self, key: &ProgramKey) -> &Shard {
        let mixed = key.fold().wrapping_mul(0x9E37_79B9_7F4A_7C15);
        &self.shards[(mixed >> (u64::BITS - SHARDS.trailing_zeros())) as usize]
    }

    /// Take one resident slot if any is left below capacity.
    fn reserve(&self) -> bool {
        self.resident
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |resident| {
                (resident < self.capacity).then_some(resident + 1)
            })
            .is_ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::StreamProgram;

    fn cost(label: &str) -> ServedCost {
        let program = StreamProgram::new(label, FpFormat::Fp16);
        ServedCost::from(&crate::CostIntegrator::snitch().integrate(&program))
    }

    fn key(layer: u32, rate: f64) -> ProgramKey {
        ProgramKey {
            layer,
            class: 1,
            format: FpFormat::Fp16,
            bucket: SparsityBucket::of(rate, 0.5),
        }
    }

    #[test]
    fn bucket_clamps_and_round_trips_rates() {
        let b = SparsityBucket::of(1.5, -0.25);
        assert_eq!(b.input_rate(), 1.0);
        assert_eq!(b.output_rate(), 0.0);
        assert_eq!(SparsityBucket::of(0.3, 0.7), SparsityBucket::of(0.3, 0.7));
        assert_ne!(SparsityBucket::of(0.3, 0.7), SparsityBucket::of(0.3000001, 0.7));
    }

    #[test]
    fn repeated_lookups_hit_after_the_first_emit() {
        let cache = ProgramCache::new();
        for _ in 0..3 {
            assert_eq!(cache.get_or_emit(key(0, 0.25), || cost("a")), cost("a"));
        }
        let c = cache.counters();
        assert_eq!((c.hits, c.rebinds, c.emits), (2, 0, 1));
        assert_eq!(c.lookups(), 3);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn a_full_cache_serves_cold_bindings_without_inserting() {
        let cache = ProgramCache::bounded(2);
        assert_eq!(cache.capacity(), 2);
        for i in 0..5 {
            cache.get_or_emit(key(i, 0.25), || cost("x"));
        }
        assert_eq!(cache.len(), 2, "growth stops at the bound");
        assert_eq!(cache.counters().emits, 5, "cold bindings still serve");
        // Resident entries keep hitting.
        cache.get_or_emit(key(0, 0.25), || panic!("resident"));
        assert_eq!(cache.counters().hits, 1);
    }

    #[test]
    fn a_panicking_emit_poisons_no_lock() {
        let cache = ProgramCache::new();
        let k = key(3, 0.25);
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            cache.get_or_emit(k, || panic!("emit fails"))
        }));
        assert!(unwound.is_err(), "the emit's panic reaches the caller");
        assert!(!cache.shard(&k).costs.is_poisoned());
        // The failed emit counted and cached nothing: the key emits once,
        // then hits once.
        assert_eq!(cache.get_or_emit(k, || cost("p")), cost("p"));
        assert_eq!(cache.get_or_emit(k, || panic!("resident")), cost("p"));
        let c = cache.counters();
        assert_eq!((c.hits, c.emits), (1, 1));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn two_caches_hash_one_key_differently() {
        let k = key(3, 0.25);
        let [a, b] = [ProgramCache::new(), ProgramCache::new()].map(|cache| {
            let hashes: Vec<u64> = cache
                .shards
                .iter()
                .map(|shard| shard.costs.read().unwrap().hasher().hash_one(k))
                .collect();
            assert!(hashes.iter().all(|&h| h == hashes[0]), "one key per cache");
            hashes[0]
        });
        assert_ne!(a, b, "each cache draws its own key");
    }

    #[test]
    fn cache_is_shareable_across_threads() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ProgramCache>();

        let cache = std::sync::Arc::new(ProgramCache::new());
        std::thread::scope(|s| {
            for _ in 0..4 {
                let cache = cache.clone();
                s.spawn(move || {
                    for i in 0..16 {
                        cache.get_or_emit(key(i % 4, 0.25), || cost("t"));
                    }
                });
            }
        });
        let c = cache.counters();
        assert_eq!(c.lookups(), 64);
        assert_eq!(cache.len(), 4);
        assert!(c.hits >= 56, "at most one cold bind per key per racing thread");
    }

    #[test]
    fn concurrent_hits_on_resident_keys_are_counted_exactly() {
        const THREADS: u64 = 4;
        const LOOKUPS: u64 = 1000;
        let cache = ProgramCache::new();
        // Keys of every layer and several buckets, so the lookups spread
        // over the shards.
        let keys: Vec<ProgramKey> =
            (0..8).flat_map(|layer| [0.125, 0.25, 0.5].map(|rate| key(layer, rate))).collect();
        for &k in &keys {
            cache.get_or_emit(k, || cost("r"));
        }
        let mut shards: Vec<*const Shard> =
            keys.iter().map(|k| cache.shard(k) as *const _).collect();
        shards.sort();
        shards.dedup();
        assert!(shards.len() >= SHARDS / 2, "24 keys spread over {} shards", shards.len());
        let emitted = cache.counters().emits;
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let (cache, keys) = (&cache, &keys);
                s.spawn(move || {
                    for i in 0..LOOKUPS {
                        let k = keys[(t + i) as usize % keys.len()];
                        cache.get_or_emit(k, || panic!("key {k:?} is resident"));
                    }
                });
            }
        });
        let c = cache.counters();
        assert_eq!(c.hits, THREADS * LOOKUPS, "every hit lands in exactly one shard counter");
        assert_eq!(c.emits, emitted, "no lookup emits");
        assert_eq!(cache.len(), keys.len());
    }

    #[test]
    fn racing_inserts_respect_the_bound_across_shards() {
        let cache = ProgramCache::bounded(8);
        let keys: Vec<ProgramKey> = (0..64).map(|i| key(i % 8, 0.01 * f64::from(i))).collect();
        std::thread::scope(|s| {
            for chunk in keys.chunks(16) {
                let cache = &cache;
                s.spawn(move || {
                    for &k in chunk {
                        cache.get_or_emit(k, || cost("b"));
                    }
                });
            }
        });
        assert_eq!(cache.len(), 8, "exactly capacity costs are resident");
        assert_eq!(cache.counters().emits, 64, "every distinct key emitted once");
        // `len` agrees with the shards: exactly 8 of the 64 keys now hit.
        let cold = keys.iter().filter(|&&k| {
            let mut emitted = false;
            cache.get_or_emit(k, || {
                emitted = true;
                cost("b")
            });
            emitted
        });
        assert_eq!(cold.count(), 56);
        assert_eq!(cache.counters().hits, 8);
        assert_eq!(cache.len(), 8, "a full cache inserts nothing more");
    }
}
