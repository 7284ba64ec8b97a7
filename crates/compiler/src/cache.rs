//! The compilation service layer's cache: content-addressed memo tables
//! shared by every worker of a [`crate::pipelines::Compiler`] batch run.
//!
//! Three pools, all built on the sharded read-mostly map of
//! [`reqisc_microarch::cache`]:
//!
//! * **programs** — whole-pipeline results keyed by (circuit content
//!   hash, pipeline, compiler-options fingerprint). A warm hit returns a
//!   finished circuit without touching the synthesis stack at all.
//! * **synthesis** — per-block [`synthesize_if_shorter`] results keyed by
//!   (target-unitary content hash, width, block budget, search-options
//!   fingerprint). Repeated 3Q subprograms — Toffoli/MAJ/UMA blocks
//!   appear hundreds of times across a benchsuite — synthesize once.
//!   Failures (`None`) are cached too: proving "no shorter realization"
//!   is the *most* expensive outcome.
//! * **pulses** — the [`PulseCache`] solver hook, keyed by (coupling,
//!   SU(4) class at the 1e-5 grouping tolerance of
//!   [`reqisc_qmath::SU4_CLASS_TOL`]).
//!
//! Key-design note: program and synthesis keys use *exact* content
//! hashes (deterministic pipelines reproduce inputs bit-for-bit, and an
//! exact key can never alias two different computations), while the
//! pulse pool groups by quantized Weyl class because instruction
//! identity — not bit identity — is the paper's §5.3.1 calibration
//! contract.

use reqisc_microarch::cache::{CacheStats, PulseCache, ShardedMap, SolverStats};
use reqisc_qcircuit::Circuit;
use reqisc_qmath::{CMat, Fnv128};
use reqisc_synthesis::{synthesize_if_shorter, BlockCircuit, SearchOptions};
use std::sync::Arc;

use crate::pipelines::Pipeline;

/// Key of one memoized whole-program compilation. Built once per
/// `compile` call (hashing the circuit is a full pass over its gates)
/// and reused for both the lookup and the fill.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct ProgramKey {
    pub(crate) circuit: u128,
    pub(crate) pipeline: Pipeline,
    pub(crate) options: u128,
}

impl ProgramKey {
    pub(crate) fn new(circuit: &Circuit, pipeline: Pipeline, options_fp: u128) -> Self {
        Self { circuit: circuit.content_hash(), pipeline, options: options_fp }
    }
}

/// Key of one memoized block-synthesis attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct SynthKey {
    pub(crate) target: u128,
    pub(crate) num_qubits: usize,
    pub(crate) budget: usize,
    pub(crate) options: u128,
}

/// Aggregated snapshot over the cache's pools.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CompileCacheStats {
    /// Whole-program pool.
    pub programs: CacheStats,
    /// Block-synthesis pool.
    pub synthesis: CacheStats,
    /// Pulse-solution pool.
    pub pulses: CacheStats,
    /// Cold-path EA-solver counters behind the pulse pool's misses (the
    /// boundary-curve solver's deterministic cost profile, aggregated).
    pub solver: SolverStats,
}

impl CompileCacheStats {
    /// Sum over all pools.
    pub fn total(&self) -> CacheStats {
        self.programs.merged(&self.synthesis).merged(&self.pulses)
    }
}

impl std::fmt::Display for CompileCacheStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "programs: {}\nsynthesis: {}\npulses: {}\nsolver: {}",
            self.programs, self.synthesis, self.pulses, self.solver
        )
    }
}

/// The shared compilation cache. Every method takes `&self`; a single
/// instance is safely shared by reference across `std::thread::scope`
/// workers (reads are shard-read-lock only — see
/// [`reqisc_microarch::cache`]).
#[derive(Debug, Default)]
pub struct CompileCache {
    programs: ShardedMap<ProgramKey, Arc<Circuit>>,
    synthesis: ShardedMap<SynthKey, Arc<Option<BlockCircuit>>>,
    pulses: PulseCache,
}

impl CompileCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty cache with an explicit shard count and per-shard entry
    /// capacity applied to all three pools — the LRU-eviction knob. The
    /// default shape ([`CompileCache::new`]) is deliberately generous
    /// (16 × 1024 entries per pool, effectively unbounded for the demo
    /// suite); a bounded shape evicts least-recently-used entries once a
    /// shard fills, with [`reqisc_microarch::cache::CacheStats::evictions`]
    /// counting every displacement.
    ///
    /// # Panics
    ///
    /// Panics if `shards` or `shard_capacity` is zero.
    pub fn with_shape(shards: usize, shard_capacity: usize) -> Self {
        Self {
            programs: ShardedMap::with_shape(shards, shard_capacity),
            synthesis: ShardedMap::with_shape(shards, shard_capacity),
            pulses: PulseCache::with_shape(shards, shard_capacity),
        }
    }

    /// Looks up a memoized whole-program compilation.
    pub(crate) fn get_program(&self, key: &ProgramKey) -> Option<Arc<Circuit>> {
        self.programs.get(key)
    }

    /// Hit-only-counted lookup of a memoized whole-program compilation
    /// (see [`ShardedMap::probe`]): a present entry counts a hit and
    /// returns; an absent one counts nothing, leaving the miss to the
    /// eventual [`Compiler::compile`](crate::Compiler::compile) that does
    /// the cold work. The service's admission probe is the caller.
    pub(crate) fn probe_program(&self, key: &ProgramKey) -> Option<Arc<Circuit>> {
        self.programs.probe(key)
    }

    /// Stores a finished whole-program compilation.
    pub(crate) fn put_program(&self, key: ProgramKey, out: Arc<Circuit>) {
        self.programs.insert(key, out);
    }

    /// Memoized [`synthesize_if_shorter`]: blocks with the same target
    /// unitary, width, and budget synthesize once per cache lifetime.
    pub fn synthesize_if_shorter_cached(
        &self,
        target: &CMat,
        num_qubits: usize,
        current_count: usize,
        opts: &SearchOptions,
    ) -> Arc<Option<BlockCircuit>> {
        // `synthesize_if_shorter` only depends on `current_count` through
        // the clamped block budget; folding the clamp into the key lets
        // e.g. 7- and 9-gate blocks with the same target share an entry.
        let budget = opts.max_blocks.min(current_count.saturating_sub(1));
        if budget == 0 {
            // Degenerate budgets short-circuit inside the search; not
            // worth a cache slot.
            return Arc::new(synthesize_if_shorter(target, num_qubits, current_count, opts));
        }
        let key = SynthKey {
            target: target.fingerprint(),
            num_qubits,
            budget,
            options: opts.fingerprint(),
        };
        self.synthesis.get_or_insert_with(&key, || {
            Arc::new(synthesize_if_shorter(target, num_qubits, current_count, opts))
        })
    }

    /// The microarchitecture solver hook: memoized pulse solutions per
    /// (coupling, SU(4) class).
    pub fn pulses(&self) -> &PulseCache {
        &self.pulses
    }

    /// Exports the whole-program pool for a persistent-store save; the
    /// trailing flag is `true` for entries a live lookup or insert touched
    /// (`false` = bulk-seeded and never served — GC-aging candidates).
    pub(crate) fn export_programs(&self) -> Vec<(ProgramKey, Arc<Circuit>, bool)> {
        let mut out = Vec::new();
        self.programs.for_each_with_used(|k, v, used| out.push((*k, v.clone(), used)));
        out
    }

    /// Exports the block-synthesis pool for a persistent-store save (same
    /// used-flag contract as [`CompileCache::export_programs`]).
    pub(crate) fn export_synthesis(&self) -> Vec<(SynthKey, Arc<Option<BlockCircuit>>, bool)> {
        let mut out = Vec::new();
        self.synthesis.for_each_with_used(|k, v, used| out.push((*k, v.clone(), used)));
        out
    }

    /// Removes one whole-program entry (the store GC's in-memory purge).
    pub(crate) fn remove_program(&self, key: &ProgramKey) -> bool {
        self.programs.remove(key)
    }

    /// Removes one block-synthesis entry (the store GC's in-memory purge).
    pub(crate) fn remove_synthesis(&self, key: &SynthKey) -> bool {
        self.synthesis.remove(key)
    }

    /// Seeds one whole-program entry (counter-free warm start — see
    /// [`reqisc_microarch::cache::ShardedMap::seed`]).
    pub(crate) fn seed_program(&self, key: ProgramKey, out: Arc<Circuit>) {
        self.programs.seed(key, out);
    }

    /// Seeds one block-synthesis entry (counter-free warm start).
    pub(crate) fn seed_synthesis(&self, key: SynthKey, v: Arc<Option<BlockCircuit>>) {
        self.synthesis.seed(key, v);
    }

    /// Counter snapshot across all pools.
    pub fn stats(&self) -> CompileCacheStats {
        CompileCacheStats {
            programs: self.programs.stats(),
            synthesis: self.synthesis.stats(),
            pulses: self.pulses.stats(),
            solver: self.pulses.solver_stats(),
        }
    }

    /// Resident entries across all pools.
    pub fn len(&self) -> usize {
        self.programs.len() + self.synthesis.len() + self.pulses.len()
    }

    /// True when nothing is memoized yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops all memoized entries in every pool (counters survive).
    pub fn clear(&self) {
        self.programs.clear();
        self.synthesis.clear();
        self.pulses.clear();
    }
}

/// Fingerprint of everything in [`crate::hierarchical::HsOptions`] that
/// can change a compilation result. Hashing the `Debug` rendering keeps
/// the fingerprint automatically in sync with future option fields at the
/// cost of a small format per compile — noise next to any pipeline run.
pub(crate) fn hs_options_fingerprint(hs: &crate::hierarchical::HsOptions) -> u128 {
    let mut h = Fnv128::new();
    h.write_str(&format!("{hs:?}"));
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use reqisc_qcircuit::Gate;

    #[test]
    fn synthesis_pool_memoizes_including_failures() {
        let cache = CompileCache::new();
        let mut opts = SearchOptions::default();
        opts.sweep.restarts = 2;
        opts.sweep.max_sweeps = 150;
        let mut c = Circuit::new(3);
        c.push(Gate::Ccx(0, 1, 2));
        let target = c.unitary();
        let a = cache.synthesize_if_shorter_cached(&target, 3, 6, &opts);
        assert!(a.is_some(), "CCX must synthesize below 6 blocks");
        let b = cache.synthesize_if_shorter_cached(&target, 3, 6, &opts);
        assert!(Arc::ptr_eq(&a, &b));
        let s = cache.stats().synthesis;
        assert_eq!((s.hits, s.misses), (1, 1));
        // current_count = 1 ⇒ budget 0 ⇒ uncached fast path, no lookup.
        let none = cache.synthesize_if_shorter_cached(&target, 3, 1, &opts);
        assert!(none.is_none());
        let s = cache.stats().synthesis;
        assert_eq!((s.hits, s.misses), (1, 1), "degenerate budgets bypass the cache");
    }

    #[test]
    fn synthesis_key_includes_budget_and_options() {
        let cache = CompileCache::new();
        let mut opts = SearchOptions::default();
        opts.sweep.restarts = 2;
        opts.sweep.max_sweeps = 150;
        let mut c = Circuit::new(3);
        c.push(Gate::Ccx(0, 1, 2));
        let target = c.unitary();
        cache.synthesize_if_shorter_cached(&target, 3, 6, &opts);
        // Same clamped budget (7 and 9 both clamp at max_blocks) shares.
        cache.synthesize_if_shorter_cached(&target, 3, 8, &opts);
        cache.synthesize_if_shorter_cached(&target, 3, 8, &opts);
        assert_eq!(cache.stats().synthesis.misses, 2, "budgets 5 and 7 are distinct");
        // Changing options misses.
        let mut opts2 = opts.clone();
        opts2.sweep.seed = 99;
        cache.synthesize_if_shorter_cached(&target, 3, 6, &opts2);
        assert_eq!(cache.stats().synthesis.misses, 3);
    }
}
