//! The plan cache: compile once per distinct (program, configuration).
//!
//! One-shot `streamlinc` pays the whole front end — parse, elaborate,
//! linear analysis, replacement selection, lowering, schedule
//! compilation, fission, partitioning — on every invocation. The daemon
//! pays it once: [`PlanCache::get_or_compile`] keys on the program's
//! content hash (FNV-1a 64 over the source text) crossed with every knob
//! that changes the compiled artifact (config, scheduler, matmul
//! strategy, thread budget, fission request, cycle quantum), and stores
//! the fully elaborated [`Artifact`] — the lowered flat graph (with each
//! filter's `FilterFacts` intact, per the facts-not-AST convention), the
//! compiled plan, the fission rewrite, and the partition — behind an
//! [`Arc`]. The interpreter tier is not a key: each stream applies its
//! own tier to its own copy of the graph. Opening a stream for a cached
//! key clones graph and plan out of the artifact (cheap relative to
//! compilation) and fires up an engine; the front end never runs again.
//!
//! Hits and misses are counted; the `stats` protocol op exposes them, and
//! `tests/service_equivalence.rs` pins that a re-opened program is a hit
//! (the equivalence suite's proof that elaborate/lower/analyze/plan were
//! skipped).

use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use streamlin_core::{analyze_graph, optimize};
use streamlin_runtime::fission::Fission;
use streamlin_runtime::measure::Scheduler;
use streamlin_runtime::{compile, Artifact, MatMulStrategy, RunSpec};
use streamlin_support::NoProbe;

/// FNV-1a 64-bit content hash — the program identity in cache keys. Not
/// cryptographic; collision risk is irrelevant at plan-cache scale and
/// the full key still includes every compilation knob.
pub fn fnv1a64(data: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in data {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Everything that selects a distinct compiled artifact.
///
/// The execution mode is deliberately **not** part of the key: it only
/// selects the engine's `Tally` at build time, and its one compile-time
/// effect — the default matmul strategy — is already captured by the
/// resolved `matmul` field. Fast and Measured streams of the same
/// program share one artifact.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct PlanKey {
    /// FNV-1a 64 of the source text.
    pub src_hash: u64,
    /// Replacement configuration (`baseline`/`linear`/`freq`/`redund`/
    /// `autosel`).
    pub config: String,
    pub sched: Scheduler,
    pub matmul: MatMulStrategy,
    /// Pipeline stage budget; `None` = the classic single-threaded
    /// engines.
    pub threads: Option<usize>,
    /// Fission request, canonicalized to a label (`Fission` itself does
    /// not implement `Hash`).
    pub fission: String,
    /// Resolved cycle quantum (the pacing protocol's run-length unit —
    /// fission's cycle expansion must divide it, so it shapes the
    /// artifact).
    pub quantum: u64,
}

/// A fully compiled program, ready to open streams on (the runtime's
/// [`Artifact`]; its `compile_ms` covers the whole front end, parse
/// through partition — the price a cache hit avoids).
pub type CachedArtifact = Artifact;

/// Cache statistics, exposed by the `stats` protocol op.
#[derive(Debug, Clone, Copy, Default)]
pub struct CacheStats {
    pub hits: u64,
    pub misses: u64,
    pub entries: usize,
}

/// The cache proper: a keyed map of [`Arc`]'d artifacts plus counters.
#[derive(Default)]
pub struct PlanCache {
    inner: Mutex<CacheInner>,
}

#[derive(Default)]
struct CacheInner {
    map: HashMap<PlanKey, Arc<CachedArtifact>>,
    hits: u64,
    misses: u64,
}

impl PlanCache {
    pub fn new() -> Self {
        Self::default()
    }

    /// Current counters.
    pub fn stats(&self) -> CacheStats {
        let g = self.inner.lock().unwrap();
        CacheStats {
            hits: g.hits,
            misses: g.misses,
            entries: g.map.len(),
        }
    }

    /// Looks up the artifact for `key`, compiling `src` through the full
    /// front end on a miss. Returns the artifact and whether this was a
    /// hit. Compilation runs outside the cache lock would be nicer for
    /// concurrent opens of *different* programs, but correctness first:
    /// the lock also deduplicates concurrent compiles of the *same*
    /// program, which is the case the daemon actually sees.
    ///
    /// # Errors
    ///
    /// Any front-end failure (parse, elaborate, plan, …) as a displayable
    /// message; errors are not cached.
    pub fn get_or_compile(
        &self,
        key: &PlanKey,
        src: &str,
        fission: Fission,
    ) -> Result<(Arc<CachedArtifact>, bool), String> {
        let mut g = self.inner.lock().unwrap();
        if let Some(a) = g.map.get(key).map(Arc::clone) {
            g.hits += 1;
            return Ok((a, true));
        }
        let spec = RunSpec {
            sched: key.sched,
            matmul: Some(key.matmul),
            threads: key.threads,
            fission,
            quantum: key.quantum,
            fallback: true,
            ..RunSpec::new(0)
        };
        let artifact = Arc::new(compile_source(src, &key.config, &spec)?);
        g.misses += 1;
        g.map.insert(key.clone(), Arc::clone(&artifact));
        Ok((artifact, false))
    }
}

/// The full front end — parse → elaborate → analyze → optimize — then
/// the runtime's one compile path, the same one `streamlinc` takes, so
/// cached execution is bit-identical to the CLI.
fn compile_source(src: &str, config: &str, spec: &RunSpec) -> Result<Artifact, String> {
    let t0 = Instant::now();
    let program = streamlin_lang::parse(src).map_err(|e| e.to_string())?;
    let graph = streamlin_graph::elaborate(&program).map_err(|e| e.to_string())?;
    let opt = optimize(&graph, &analyze_graph(&graph), config)?;
    let mut art = compile(&opt, spec, &mut NoProbe, None).map_err(|e| e.to_string())?;
    art.compile_ms = t0.elapsed().as_secs_f64() * 1e3;
    Ok(art)
}

#[cfg(test)]
mod tests {
    use super::*;

    const PROGRAM: &str = "void->void pipeline Main { add S(); add K(); }
         void->float filter S { float x; work push 1 { push(x++); } }
         float->void filter K { work pop 1 { println(2 * pop()); } }";

    fn key(threads: Option<usize>) -> PlanKey {
        PlanKey {
            src_hash: fnv1a64(PROGRAM.as_bytes()),
            config: "autosel".into(),
            sched: Scheduler::Auto,
            matmul: MatMulStrategy::Simd,
            threads,
            fission: "off".into(),
            quantum: 4,
        }
    }

    #[test]
    fn second_lookup_is_a_hit_and_shares_the_artifact() {
        let cache = PlanCache::new();
        let (a, hit) = cache
            .get_or_compile(&key(None), PROGRAM, Fission::Off)
            .unwrap();
        assert!(!hit);
        let (b, hit) = cache
            .get_or_compile(&key(None), PROGRAM, Fission::Off)
            .unwrap();
        assert!(hit);
        assert!(Arc::ptr_eq(&a, &b));
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.entries), (1, 1, 1));
    }

    #[test]
    fn distinct_knobs_are_distinct_entries() {
        let cache = PlanCache::new();
        cache
            .get_or_compile(&key(None), PROGRAM, Fission::Off)
            .unwrap();
        let (a, hit) = cache
            .get_or_compile(&key(Some(2)), PROGRAM, Fission::Off)
            .unwrap();
        assert!(!hit);
        assert!(a.part.is_some(), "pipeline key carries a partition");
        assert!(
            a.canonical.is_some(),
            "pipeline key retains the canonical pair"
        );
        assert_eq!(cache.stats().entries, 2);
    }

    #[test]
    fn compile_errors_are_not_cached() {
        let cache = PlanCache::new();
        let mut k = key(None);
        k.src_hash = 1;
        assert!(cache
            .get_or_compile(&k, "not a program", Fission::Off)
            .is_err());
        assert_eq!(cache.stats().entries, 0);
        assert_eq!(cache.stats().misses, 0);
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }
}
