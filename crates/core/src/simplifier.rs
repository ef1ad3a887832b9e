//! The [`Simplifier`] driver: rounds, caching, scoring, and the
//! final-step optimization (Algorithm 1's outer loop).

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use mba_expr::{metrics, Expr, ExprArena, Ident, MbaClass, Metrics};
use mba_obs::{Counter, Histogram, MetricsRegistry};
use mba_sig::{catalog, linear_combination, CacheStats, SigCache, SignatureVector};
use parking_lot::Mutex;

use crate::pipeline::Pipeline;

/// Pre-resolved instrument handles for the simplifier's per-stage
/// telemetry, so the hot path never touches the registry's lock.
///
/// Latency histograms cover the paper's pipeline stages:
///
/// * `core.stage.signature.micros` — truth-table extraction (§4.1's
///   `2^t` evaluation sweep);
/// * `core.stage.basis.micros` — normalized-basis solving (§4.3 Möbius
///   inversion, Table 9 linear solve);
/// * `core.stage.poly_reduce.micros` — one whole lowering pass
///   (polynomial expansion + reduction); **includes** the signature and
///   basis spans, which fire inside it;
/// * `core.stage.simba.micros` — the SiMBA corner-evaluation fast path
///   and the semi-linear group-mask tier (fires inside `poly_reduce`,
///   like the signature/basis spans it replaces on a hit);
/// * `core.stage.rewrite.micros` — the structural peephole pass;
/// * `core.stage.final_fold.micros` — the §4.5 final-step bitwise fold.
///
/// Counters under `core.result.*` are pure functions of the simplified
/// results (and, for `core.result.class.*`, of the *inputs*), so they
/// are byte-identical across worker counts and cache schedules (unlike
/// stage-span *counts*, which vary with cache hits). The tier-event
/// counters (`core.result.bdd_canonicalized`,
/// `core.result.skipped.too_many_vars`) keep that property by riding on
/// flags threaded through the round cache: the flag is a pure function
/// of the input, recorded once per `simplify_detailed` call, never once
/// per (schedule-dependent) cache miss.
#[derive(Debug)]
pub(crate) struct StageMetrics {
    pub(crate) signature: Arc<Histogram>,
    pub(crate) basis: Arc<Histogram>,
    pub(crate) simba: Arc<Histogram>,
    poly_reduce: Arc<Histogram>,
    rewrite: Arc<Histogram>,
    final_fold: Arc<Histogram>,
    result_exprs: Arc<Counter>,
    result_rounds: Arc<Counter>,
    result_bailouts: Arc<Counter>,
    result_output_nodes: Arc<Counter>,
    result_bdd: Arc<Counter>,
    result_skipped_too_many_vars: Arc<Counter>,
    result_class_linear: Arc<Counter>,
    result_class_semi_linear: Arc<Counter>,
    result_class_poly: Arc<Counter>,
    result_class_non_poly: Arc<Counter>,
}

impl StageMetrics {
    fn resolve(registry: &MetricsRegistry) -> StageMetrics {
        StageMetrics {
            signature: registry.histogram("core.stage.signature.micros"),
            basis: registry.histogram("core.stage.basis.micros"),
            simba: registry.histogram("core.stage.simba.micros"),
            poly_reduce: registry.histogram("core.stage.poly_reduce.micros"),
            rewrite: registry.histogram("core.stage.rewrite.micros"),
            final_fold: registry.histogram("core.stage.final_fold.micros"),
            result_exprs: registry.counter("core.result.exprs"),
            result_rounds: registry.counter("core.result.rounds"),
            result_bailouts: registry.counter("core.result.bailouts"),
            result_output_nodes: registry.counter("core.result.output_nodes"),
            result_bdd: registry.counter("core.result.bdd_canonicalized"),
            result_skipped_too_many_vars: registry
                .counter("core.result.skipped.too_many_vars"),
            result_class_linear: registry.counter("core.result.class.linear"),
            result_class_semi_linear: registry.counter("core.result.class.semi_linear"),
            result_class_poly: registry.counter("core.result.class.poly"),
            result_class_non_poly: registry.counter("core.result.class.non_poly"),
        }
    }

    /// Bumps the `core.result.class.*` counter for `class` — keyed on
    /// the input's classification, a pure function of the input.
    fn count_class(&self, class: MbaClass) {
        match class {
            MbaClass::Linear => self.result_class_linear.inc(),
            MbaClass::SemiLinear => self.result_class_semi_linear.inc(),
            MbaClass::Polynomial => self.result_class_poly.inc(),
            MbaClass::NonPolynomial => self.result_class_non_poly.inc(),
        }
    }
}

/// Which normalized basis the §4.3 reduction targets (§7 discusses the
/// trade-off; Table 4 is the ∧-basis, Table 9 the ∨-basis).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Basis {
    /// `{−1} ∪ {∧S}` — unimodular, always integer-solvable (Table 4).
    #[default]
    And,
    /// `{−1} ∪ {∨S}` — sometimes shorter, falls back to ∧ when no
    /// integer solution exists (Table 9).
    Or,
    /// Try both bases and keep the better result — the base-vector
    /// selection heuristic §7 proposes as future work. Costs roughly
    /// twice the time of a fixed basis.
    Adaptive,
}

/// A deliberately unsound rewrite applied to the simplifier's *output*.
///
/// This exists solely for the verification subsystem (`mba-verify`):
/// its self-tests enable one of these bugs and assert that the fuzzing
/// harness both detects the resulting discrepancy and shrinks it to a
/// minimal reproducer. Production code must leave
/// [`SimplifyConfig::injected_bug`] at `None`; the soundness contract
/// of every other simplifier path is unaffected by that default.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InjectedBug {
    /// Rewrites the first `a|b` node of the output to `a^b` — wrong
    /// exactly when `a ∧ b ≠ 0` somewhere.
    OrToXor,
    /// Rewrites the first `a+b` node of the output to `a|b` — wrong
    /// exactly when the addition carries.
    AddToOr,
    /// Adds 1 to the whole output — wrong on every input.
    OffByOne,
    /// Zeroes the first nonzero coefficient the SiMBA fast path
    /// recovers from corner evaluations (applied *after* the fast
    /// path's internal verification, so it cannot catch itself). Unlike
    /// the output-level bugs above, this one corrupts inside the new
    /// tier: it only fires on expressions the fast path serves, and the
    /// dropped term makes the output strictly simpler — exactly the
    /// kind of plausible-looking corruption the score guard would wave
    /// through.
    SimbaCoeffFlip,
    /// Makes the arena intern table return a *stale* id: after interning
    /// the pipeline's root/skeleton, the id is swapped for its first
    /// child's id — exactly the failure mode of an interner that kept an
    /// entry alive across a rewrite. Like [`InjectedBug::SimbaCoeffFlip`]
    /// this corrupts *inside* a tier (the arena-keyed signature route),
    /// so it only fires when [`SimplifyConfig::use_arena`] is set, and
    /// the arena-off differential path is immune by construction.
    ArenaStaleId,
    /// Flips the complement flag on the root edge of the BDD tier's
    /// diagram *between build and extraction*, so the canonicalized
    /// subterm comes back as its bitwise complement — exactly the
    /// corruption a broken complement-edge invariant (a lost or doubled
    /// flag during `mk_node` normalization) would produce. Fires only
    /// when [`SimplifyConfig::use_bdd`] is set and a pure-bitwise
    /// subterm beyond `TruthTable::MAX_VARS` reaches the tier, so the
    /// fuzzer needs a high-variable-count case stream to catch it; the
    /// `use_bdd:false` differential path is immune by construction.
    BddComplementFlip,
}

/// Tuning knobs for the simplifier. [`SimplifyConfig::default`] matches
/// the paper's prototype.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimplifyConfig {
    /// Bit width of the target ring `Z/2^w`; coefficients reduce
    /// symmetrically modulo `2^width`. MBA identities are width-generic,
    /// so 64 (the default) is safe for any narrower target.
    pub width: u32,
    /// Maximum simplification rounds (substituting temporaries back can
    /// expose further reductions, as in the §4.5 example).
    pub max_rounds: usize,
    /// Bail-out threshold on distinct monomials during expansion.
    pub max_monomials: usize,
    /// Enable the final-step optimization (§4.5): fold a scaled
    /// truth-table signature into a single bitwise expression.
    pub final_step: bool,
    /// Enable the look-up table (§4.5): memoize per-expression results.
    pub use_cache: bool,
    /// Enable the SiMBA linear fast path: recover basis coefficients of
    /// linear candidates from `2^t` corner evaluations instead of
    /// per-term truth tables. Off routes every linear candidate through
    /// the classic truth-table/basis pipeline; outputs are
    /// byte-identical either way (`tests/simba_differential.rs` holds
    /// this pinned).
    pub use_simba: bool,
    /// Route the pipeline's hot interior through the hash-consed
    /// [`ExprArena`]: classification, corner recovery, and truth-table
    /// extraction run over interned node ids, and the signature cache is
    /// keyed by id instead of re-hashed subtrees. Off routes everything
    /// through the original `Expr`-walking code; outputs are
    /// byte-identical either way (`tests/arena_differential.rs` holds
    /// this pinned).
    pub use_arena: bool,
    /// Enable the BDD canonicalization tier (`mba-bdd`): pure-bitwise
    /// subterms with more than `TruthTable::MAX_VARS` variables — too
    /// wide for any `2^t`-row tier — are canonicalized through a
    /// hash-consed ROBDD and rendered back via Shannon extraction,
    /// instead of being kept opaque. The tier only ever replaces a
    /// subterm by an exactly equivalent canonical form; when it
    /// declines (non-bitwise construct, diagram or render blow-up) the
    /// pipeline records an explicit [`TierSkipped::TooManyVars`] and
    /// keeps the subterm opaque as before. Off restores the pre-BDD
    /// behaviour byte-identically (`Simplified::used_bdd` reports
    /// whether the tier influenced a result).
    pub use_bdd: bool,
    /// Normalized basis selection (§7).
    pub basis: Basis,
    /// Testing-only fault injection for the verification subsystem; see
    /// [`InjectedBug`]. Must be `None` outside fuzzer self-tests.
    pub injected_bug: Option<InjectedBug>,
}

impl Default for SimplifyConfig {
    fn default() -> Self {
        SimplifyConfig {
            width: 64,
            max_rounds: 4,
            max_monomials: 4096,
            final_step: true,
            use_cache: true,
            use_simba: true,
            use_arena: true,
            use_bdd: true,
            basis: Basis::And,
            injected_bug: None,
        }
    }
}

/// Alias for [`Simplified`] under the batch API's name:
/// [`Simplifier::simplify_batch`] returns `Vec<SimplifyResult>`.
pub type SimplifyResult = Simplified;

/// Which tier of the pipeline claimed a result (reported per result in
/// the CLI's verbose output and the serving layer's diagnostics).
///
/// The tag is derived deterministically: an output byte-identical to the
/// input is `Unchanged`; otherwise the *input's* classification names
/// the algebraic tier that handled it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimplifyTier {
    /// The linear pipeline (truth-table/basis solve or the SiMBA corner
    /// fast path).
    Linear,
    /// The semi-linear group-mask tier.
    SemiLinear,
    /// The polynomial/non-polynomial reduction pipeline.
    Poly,
    /// Produced by nothing: the enumerative synthesis tier that emitted
    /// it was removed because it accepted rewrites on probe evidence
    /// alone. The variant stays only so the benchmark's tier table
    /// (`e2ebench/`) keeps compiling, and goes in the next benchmark
    /// change.
    Synthesis,
    /// No tier improved the input; the output is the input.
    Unchanged,
}

impl std::fmt::Display for SimplifyTier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            SimplifyTier::Linear => "linear",
            SimplifyTier::SemiLinear => "semi-linear",
            SimplifyTier::Poly => "poly",
            SimplifyTier::Synthesis => "synthesis",
            SimplifyTier::Unchanged => "unchanged",
        })
    }
}

/// Why a canonicalization tier declined a subterm — an *explicit*
/// record of what used to be a silent fall-through, surfaced on
/// [`Simplified::skipped`] and counted under
/// `core.result.skipped.too_many_vars`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TierSkipped {
    /// A pure-bitwise subterm had more variables than every available
    /// canonicalization tier supports (beyond `TruthTable::MAX_VARS`
    /// and, when the BDD tier is enabled, beyond its own variable or
    /// node budget too), so it was kept as an opaque atom.
    TooManyVars,
}

impl std::fmt::Display for TierSkipped {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            TierSkipped::TooManyVars => "too-many-vars",
        })
    }
}

/// Flags threaded through the round/canonical caches alongside each
/// result. Each entry's flags are a pure function of its key (like the
/// result itself), so counters derived from them stay byte-identical
/// across worker counts and cache schedules.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct RoundFlags {
    /// A pass hit the monomial cap and kept its input.
    pub(crate) bailed: bool,
    /// The BDD tier canonicalized some subterm along the way (even one
    /// later discarded by scoring — an over-approximation is safe: the
    /// `use_bdd:false` differential path skips byte-comparison when
    /// set, it never falsely diverges).
    pub(crate) used_bdd: bool,
    /// Some pure-bitwise subterm was too wide for every
    /// canonicalization tier and stayed opaque.
    pub(crate) skipped_too_many_vars: bool,
}

impl RoundFlags {
    /// Folds a nested round's tier flags in, *without* its `bailed`
    /// bit: nested bail-outs were never reported by the rounds loop,
    /// and widening them now would shift the pinned
    /// `core.result.bailouts` counter.
    pub(crate) fn absorb_nested(&mut self, nested: RoundFlags) {
        self.used_bdd |= nested.used_bdd;
        self.skipped_too_many_vars |= nested.skipped_too_many_vars;
    }
}

/// The result of [`Simplifier::simplify_detailed`].
#[derive(Debug, Clone)]
pub struct Simplified {
    /// The simplified expression (the input itself when no improvement
    /// was found — never anything semantically different).
    pub output: Expr,
    /// Rounds executed before the fixpoint.
    pub rounds: usize,
    /// Whether any pass hit the monomial cap and kept its input.
    pub bailed: bool,
    /// Whether the BDD canonicalization tier fired anywhere while
    /// producing this result (including on candidates later discarded
    /// by scoring). Differential harnesses comparing against a
    /// `use_bdd:false` run should only demand byte-identity when this
    /// is `false`.
    pub used_bdd: bool,
    /// Set when some subterm was declined by every canonicalization
    /// tier and kept opaque — previously a silent fall-through, now an
    /// explicit, observable outcome.
    pub skipped: Option<TierSkipped>,
    /// Metrics of the input.
    pub input_metrics: Metrics,
    /// Metrics of the output.
    pub output_metrics: Metrics,
    /// Which tier claimed the result.
    pub tier: SimplifyTier,
}

/// The MBA-Solver simplifier (Algorithm 1).
///
/// A `Simplifier` owns a lookup-table cache shared across calls, so reuse
/// one instance when simplifying a corpus. All methods take `&self`; the
/// type is `Send + Sync`.
///
/// ```
/// use mba_solver::Simplifier;
/// let s = Simplifier::new();
/// let e = "2*(x|y) - (~x&y) - (x&~y)".parse().unwrap();
/// assert_eq!(s.simplify(&e).to_string(), "x+y");
/// ```
#[derive(Debug)]
pub struct Simplifier {
    config: SimplifyConfig,
    cache: Mutex<HashMap<Expr, (Expr, RoundFlags)>>,
    canonical_cache: Mutex<HashMap<Expr, (Expr, RoundFlags)>>,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
    /// Signature-layer memoization (truth tables and basis
    /// coefficients), shareable across simplifiers via
    /// [`Simplifier::with_cache`] and across batch workers. Consulted
    /// only when [`SimplifyConfig::use_cache`] is set.
    sig_cache: Arc<SigCache>,
    /// The hash-consed node arena the pipeline's interior runs over when
    /// [`SimplifyConfig::use_arena`] is set. Shared across batch workers
    /// and adaptive sub-solvers (like the signature cache), so
    /// structurally identical subtrees intern to one id across the whole
    /// corpus — the cross-expression CSE the id-keyed signature cache
    /// exploits.
    arena: Arc<ExprArena>,
    /// Per-stage telemetry registry, shareable via
    /// [`Simplifier::with_metrics`] (the serving layer hands every
    /// simplifier its process-wide registry).
    obs: Arc<MetricsRegistry>,
    stages: StageMetrics,
}

impl Default for Simplifier {
    fn default() -> Self {
        Simplifier::with_metrics(
            SimplifyConfig::default(),
            Arc::new(SigCache::new()),
            Arc::new(MetricsRegistry::new()),
        )
    }
}

/// Recursion guard for nested temporary simplification.
const MAX_DEPTH: usize = 32;

impl Simplifier {
    /// Creates a simplifier with the default (paper) configuration.
    pub fn new() -> Simplifier {
        Simplifier::default()
    }

    /// Creates a simplifier with an explicit configuration.
    pub fn with_config(config: SimplifyConfig) -> Simplifier {
        Simplifier {
            config,
            ..Simplifier::default()
        }
    }

    /// Creates a simplifier sharing an existing signature cache.
    ///
    /// Hand clones of one `Arc<SigCache>` to several simplifiers (or to
    /// several [`Simplifier::simplify_batch`] calls) and they pool their
    /// memoized truth tables and basis coefficients:
    ///
    /// ```
    /// use std::sync::Arc;
    /// use mba_sig::SigCache;
    /// use mba_solver::{Simplifier, SimplifyConfig};
    ///
    /// let cache = Arc::new(SigCache::new());
    /// let a = Simplifier::with_cache(SimplifyConfig::default(), Arc::clone(&cache));
    /// let b = Simplifier::with_cache(SimplifyConfig::default(), Arc::clone(&cache));
    /// // Polynomial inputs walk the truth-table route (linear ones are
    /// // handled by the corner-recovery fast path, which needs no cache).
    /// a.simplify(&"x*y + 2*(x&y)".parse().unwrap());
    /// b.simplify(&"x*y + 2*(x&y)".parse().unwrap());
    /// assert!(cache.stats().hits > 0, "b reuses a's signature work");
    /// ```
    pub fn with_cache(config: SimplifyConfig, sig_cache: Arc<SigCache>) -> Simplifier {
        Simplifier::with_metrics(config, sig_cache, Arc::new(MetricsRegistry::new()))
    }

    /// Creates a simplifier sharing both a signature cache and a
    /// metrics registry — the fully-shared constructor the serving
    /// layer and the bench runners use, so per-stage spans from every
    /// worker land in one process-wide registry.
    ///
    /// ```
    /// use std::sync::Arc;
    /// use mba_obs::MetricsRegistry;
    /// use mba_sig::SigCache;
    /// use mba_solver::{Simplifier, SimplifyConfig};
    ///
    /// let obs = Arc::new(MetricsRegistry::new());
    /// let s = Simplifier::with_metrics(
    ///     SimplifyConfig::default(),
    ///     Arc::new(SigCache::new()),
    ///     Arc::clone(&obs),
    /// );
    /// s.simplify(&"x*y + 2*(x&y)".parse().unwrap());
    /// let snap = obs.snapshot();
    /// assert_eq!(snap.counter("core.result.exprs"), 1);
    /// assert!(snap.histogram("core.stage.signature.micros").unwrap().count > 0);
    /// ```
    pub fn with_metrics(
        config: SimplifyConfig,
        sig_cache: Arc<SigCache>,
        obs: Arc<MetricsRegistry>,
    ) -> Simplifier {
        Simplifier::with_parts(config, sig_cache, Arc::new(ExprArena::new()), obs)
    }

    /// The fully-explicit constructor: every shared component handed in.
    /// Internal — adaptive sub-solvers use it to share their parent's
    /// arena alongside its signature cache and registry.
    fn with_parts(
        config: SimplifyConfig,
        sig_cache: Arc<SigCache>,
        arena: Arc<ExprArena>,
        obs: Arc<MetricsRegistry>,
    ) -> Simplifier {
        let stages = StageMetrics::resolve(&obs);
        Simplifier {
            config,
            cache: Mutex::new(HashMap::new()),
            canonical_cache: Mutex::new(HashMap::new()),
            cache_hits: AtomicU64::new(0),
            cache_misses: AtomicU64::new(0),
            sig_cache,
            arena,
            obs,
            stages,
        }
    }

    /// The shared signature-layer cache (for stats or further sharing).
    pub fn sig_cache(&self) -> &Arc<SigCache> {
        &self.sig_cache
    }

    /// The shared hash-consed node arena (for stats, telemetry bridging,
    /// or further sharing). Populated only when
    /// [`SimplifyConfig::use_arena`] is set; an arena-off simplifier
    /// never interns into it.
    pub fn arena(&self) -> &Arc<ExprArena> {
        &self.arena
    }

    /// The shared per-stage metrics registry (for snapshots or further
    /// sharing).
    pub fn metrics(&self) -> &Arc<MetricsRegistry> {
        &self.obs
    }

    /// Pre-resolved stage instrument handles, for the pipeline.
    pub(crate) fn stages(&self) -> &StageMetrics {
        &self.stages
    }

    /// The active configuration.
    pub fn config(&self) -> &SimplifyConfig {
        &self.config
    }

    /// Simplifies an expression, returning the best equivalent form
    /// found (possibly the input itself).
    pub fn simplify(&self, e: &Expr) -> Expr {
        self.simplify_detailed(e).output
    }

    /// Simplifies an expression and reports round/bail-out details.
    pub fn simplify_detailed(&self, e: &Expr) -> Simplified {
        if self.config.basis == Basis::Adaptive {
            return self.simplify_adaptive(e);
        }
        let input_class = e.mba_class();
        let mut current = e.clone();
        let mut rounds = 0;
        let mut bailed = false;
        let mut flags = RoundFlags::default();
        for _ in 0..self.config.max_rounds {
            let (next, round_flags) = self.simplify_round(&current, 0);
            bailed |= round_flags.bailed;
            flags.absorb_nested(round_flags);
            rounds += 1;
            if next == current || score(&next) > score(&current) {
                break;
            }
            current = next;
        }
        if self.config.final_step {
            current = self.final_step(&current);
        }
        if let Some(bug) = self.config.injected_bug {
            current = apply_injected_bug(bug, &current);
        }
        let tier = if current == *e {
            SimplifyTier::Unchanged
        } else {
            match input_class {
                MbaClass::Linear => SimplifyTier::Linear,
                MbaClass::SemiLinear => SimplifyTier::SemiLinear,
                MbaClass::Polynomial | MbaClass::NonPolynomial => SimplifyTier::Poly,
            }
        };
        // `core.result.*` counters are derived from the result alone —
        // the batch API guarantees results are byte-identical across
        // worker counts, so these counters inherit that determinism.
        // The per-class counters key on the *input* classification,
        // also a pure function of the case stream.
        self.stages.count_class(input_class);
        self.stages.result_exprs.inc();
        self.stages.result_rounds.add(rounds as u64);
        if bailed {
            self.stages.result_bailouts.inc();
        }
        self.stages.result_output_nodes.add(current.node_count() as u64);
        // Tier-event counters: once per input, from flags that are a
        // pure function of the input — bumping them at the (cache-
        // schedule-dependent) tier sites instead would break the
        // cross-jobs metrics determinism pin.
        if flags.used_bdd {
            self.stages.result_bdd.inc();
        }
        if flags.skipped_too_many_vars {
            self.stages.result_skipped_too_many_vars.inc();
        }
        Simplified {
            rounds,
            bailed,
            used_bdd: flags.used_bdd,
            skipped: flags
                .skipped_too_many_vars
                .then_some(TierSkipped::TooManyVars),
            input_metrics: Metrics::of(e),
            output_metrics: Metrics::of(&current),
            output: current,
            tier,
        }
    }

    /// Simplifies a batch of expressions in parallel, one worker per
    /// available core, all workers sharing this simplifier's caches.
    ///
    /// Results arrive in input order, and each is byte-identical to
    /// what a sequential [`Simplifier::simplify_detailed`] loop would
    /// produce — every memoized value is a pure function of its key, so
    /// scheduling cannot leak into outputs
    /// (`tests/differential_cache.rs` holds this pinned).
    pub fn simplify_batch(&self, exprs: &[Expr]) -> Vec<SimplifyResult> {
        self.simplify_batch_with_jobs(exprs, 0)
    }

    /// [`Simplifier::simplify_batch`] with an explicit worker count.
    ///
    /// `jobs == 0` means "one worker per available core"
    /// ([`std::thread::available_parallelism`]), `jobs == 1` runs inline
    /// on the calling thread, and any count is capped at the batch
    /// length. The worker count never affects outputs — results are
    /// byte-identical across any `jobs` value.
    pub fn simplify_batch_with_jobs(&self, exprs: &[Expr], jobs: usize) -> Vec<SimplifyResult> {
        let refs: Vec<&Expr> = exprs.iter().collect();
        self.simplify_batch_refs(&refs, jobs)
    }

    /// [`Simplifier::simplify_batch_with_jobs`] over borrowed inputs.
    ///
    /// Callers that already own their corpus elsewhere (the fuzz
    /// harness, replay drivers) hand in `&[&Expr]` and skip the deep
    /// `Expr::clone` per case that assembling an owned `Vec<Expr>` would
    /// cost — with the arena interning structure anyway, that clone was
    /// pure job-setup overhead. Semantics are identical to the owned
    /// entry point: same worker resolution, same input-order results,
    /// byte-identical outputs at any `jobs` value.
    pub fn simplify_batch_refs(&self, exprs: &[&Expr], jobs: usize) -> Vec<SimplifyResult> {
        let jobs = if jobs == 0 {
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1)
        } else {
            jobs
        };
        let jobs = jobs.clamp(1, exprs.len().max(1));
        if jobs == 1 {
            return exprs.iter().map(|e| self.simplify_detailed(e)).collect();
        }
        // Work-stealing by atomic index: workers pull the next
        // unclaimed expression, tagging results with their input
        // position so the merge restores input order.
        let next = AtomicUsize::new(0);
        let mut tagged: Vec<(usize, Simplified)> = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..jobs)
                .map(|_| {
                    scope.spawn(|| {
                        let mut local = Vec::new();
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            let Some(e) = exprs.get(i) else { break };
                            local.push((i, self.simplify_detailed(e)));
                        }
                        local
                    })
                })
                .collect();
            workers
                .into_iter()
                .flat_map(|w| w.join().expect("batch worker panicked"))
                .collect()
        });
        tagged.sort_by_key(|&(i, _)| i);
        tagged.into_iter().map(|(_, s)| s).collect()
    }

    /// §7's base-vector selection: run the ∧- and ∨-basis pipelines
    /// independently and keep whichever result scores better (ties go
    /// to the ∧ basis, the paper's default).
    fn simplify_adaptive(&self, e: &Expr) -> Simplified {
        // Both sub-solvers share this simplifier's signature cache (the
        // truth tables are basis-independent, and the ∧ run's Möbius
        // coefficients double as the ∨ run's fallback), its node arena
        // (ids stay valid across both runs, so the ∨ run's lookups hit
        // the ∧ run's interned skeletons), and its metrics registry — so
        // adaptive runs record one `core.result.exprs` per basis
        // attempt, i.e. two per input expression.
        let and_solver = Simplifier::with_parts(
            SimplifyConfig {
                basis: Basis::And,
                ..self.config.clone()
            },
            Arc::clone(&self.sig_cache),
            Arc::clone(&self.arena),
            Arc::clone(&self.obs),
        );
        let or_solver = Simplifier::with_parts(
            SimplifyConfig {
                basis: Basis::Or,
                ..self.config.clone()
            },
            Arc::clone(&self.sig_cache),
            Arc::clone(&self.arena),
            Arc::clone(&self.obs),
        );
        let and_result = and_solver.simplify_detailed(e);
        let or_result = or_solver.simplify_detailed(e);
        if score(&or_result.output) < score(&and_result.output) {
            or_result
        } else {
            and_result
        }
    }

    /// Hit/miss counters of the expression-level lookup table since
    /// construction (or the last [`Simplifier::clear_cache`]).
    ///
    /// Distinct from [`Simplifier::sig_cache`]'s counters: this table
    /// memoizes whole `expression → result` rounds, the signature cache
    /// memoizes the truth-table/basis layer underneath. Both report
    /// through the same [`CacheStats`] shape
    /// (`hit_rate()` / `lookups()`).
    pub fn cache_stats(&self) -> CacheStats {
        CacheStats {
            hits: self.cache_hits.load(Ordering::Relaxed),
            misses: self.cache_misses.load(Ordering::Relaxed),
        }
    }

    /// Empties the lookup table and resets its counters.
    pub fn clear_cache(&self) {
        self.cache.lock().clear();
        self.canonical_cache.lock().clear();
        self.cache_hits.store(0, Ordering::Relaxed);
        self.cache_misses.store(0, Ordering::Relaxed);
    }

    /// One lowering pass; returns `(result, flags)`. The result is
    /// never worse than the input under [`score`].
    pub(crate) fn simplify_round(&self, e: &Expr, depth: usize) -> (Expr, RoundFlags) {
        if depth > MAX_DEPTH {
            return (e.clone(), RoundFlags::default());
        }
        if self.config.use_cache {
            if let Some(hit) = self.cache.lock().get(e) {
                self.cache_hits.fetch_add(1, Ordering::Relaxed);
                return hit.clone();
            }
            self.cache_misses.fetch_add(1, Ordering::Relaxed);
        }
        let mut pipeline = Pipeline::new(self, e, depth);
        let candidate = {
            let _t = self.stages.poly_reduce.time();
            pipeline.run(e)
        };
        let mut flags = RoundFlags {
            bailed: pipeline.bailed,
            used_bdd: pipeline.used_bdd,
            skipped_too_many_vars: pipeline.skipped_too_many_vars,
        };
        let mut result = e.clone();
        // Prefer the pipeline's canonical render even on score ties:
        // canonical forms make structurally-diverged but equivalent
        // subtrees deduplicate (the common-subexpression optimization
        // depends on it).
        if let Some(c) = candidate {
            if score(&c) <= score(&result) {
                result = c;
            }
        }
        // Fallback: even when full expansion loses, children may still
        // simplify (§7's "intermediate results for sub-expressions").
        let (structural, structural_flags) = self.structural_pass(e, depth);
        flags.absorb_nested(structural_flags);
        if score(&structural) < score(&result) {
            result = structural;
        }
        if self.config.use_cache {
            self.cache
                .lock()
                .insert(e.clone(), (result.clone(), flags));
        }
        (result, flags)
    }

    /// The canonical polynomial render of `e` — the pipeline's output
    /// with no size gating. Used as the deduplication key for opaque
    /// temporaries: syntactically different but polynomially equal
    /// subtrees share a canonical form. Falls back to `e` itself on a
    /// monomial-cap bail-out.
    pub(crate) fn canonical_form(&self, e: &Expr, depth: usize) -> (Expr, RoundFlags) {
        if depth > MAX_DEPTH {
            return (e.clone(), RoundFlags::default());
        }
        if let Some(hit) = self.canonical_cache.lock().get(e) {
            return hit.clone();
        }
        let mut pipeline = Pipeline::new(self, e, depth);
        let out = {
            let _t = self.stages.poly_reduce.time();
            pipeline.run(e).unwrap_or_else(|| e.clone())
        };
        // Canonical probes report tier flags (a BDD firing here changes
        // temp-dedup keys, so the `use_bdd:false` differential must see
        // it) but never `bailed` — callers only absorb the tier bits.
        let flags = RoundFlags {
            bailed: false,
            used_bdd: pipeline.used_bdd,
            skipped_too_many_vars: pipeline.skipped_too_many_vars,
        };
        self.canonical_cache
            .lock()
            .insert(e.clone(), (out.clone(), flags));
        (out, flags)
    }

    /// Rebuilds `e` with each child simplified independently, then folds
    /// local identities at this node. The returned flags carry only the
    /// children's *tier* bits (see [`RoundFlags::absorb_nested`]).
    fn structural_pass(&self, e: &Expr, depth: usize) -> (Expr, RoundFlags) {
        let mut flags = RoundFlags::default();
        let rebuilt = match e {
            Expr::Const(_) | Expr::Var(_) => e.clone(),
            Expr::Unary(op, a) => {
                let (a, fa) = self.simplify_round(a, depth + 1);
                flags.absorb_nested(fa);
                Expr::unary(*op, a)
            }
            Expr::Binary(op, a, b) => {
                let (a, fa) = self.simplify_round(a, depth + 1);
                let (b, fb) = self.simplify_round(b, depth + 1);
                flags.absorb_nested(fa);
                flags.absorb_nested(fb);
                Expr::binary(*op, a, b)
            }
        };
        let _t = self.stages.rewrite.time();
        (crate::rewrite::peephole(rebuilt), flags)
    }

    /// Attempts to *prove* two expressions equivalent by comparing their
    /// canonical polynomial forms over shared atoms.
    ///
    /// `Some(true)` is a proof of equivalence at the configured width
    /// (Theorem 1 plus ring arithmetic). `Some(false)` means the
    /// polynomial forms differ — which does **not** disprove equivalence,
    /// since distinct atoms can still be related (e.g.
    /// `(x∧y)·(x∨y) = x·y`). `None` means a monomial-cap bail-out.
    ///
    /// ```
    /// use mba_solver::Simplifier;
    /// let s = Simplifier::new();
    /// let a = "(x&~y)*(~x&y) + (x&y)*(x|y)".parse().unwrap();
    /// let b = "x*y".parse().unwrap();
    /// assert_eq!(s.proves_equivalent(&a, &b), Some(true));
    /// ```
    pub fn proves_equivalent(&self, a: &Expr, b: &Expr) -> Option<bool> {
        // Simplify the difference with the full rounds loop: shared
        // opaque subtrees on both sides unify through the temporary
        // deduplication, and the certificate succeeds iff the
        // difference collapses to 0.
        let diff = Expr::binary(mba_expr::BinOp::Sub, a.clone(), b.clone());
        let d = self.simplify_detailed(&diff);
        if d.output == Expr::zero() {
            Some(true)
        } else if d.bailed {
            None
        } else {
            Some(false)
        }
    }

    /// §4.5 final-step optimization: if the (linear, ≤3-variable) result
    /// is a scaled truth-table column, replace it by `c ·` the minimal
    /// bitwise expression from the catalog when that is strictly better.
    pub(crate) fn final_step(&self, e: &Expr) -> Expr {
        let _t = self.stages.final_fold.time();
        if e.mba_class() != MbaClass::Linear {
            return e.clone();
        }
        let vars: Vec<Ident> = e.vars().into_iter().collect();
        if vars.is_empty() || vars.len() > catalog::MAX_CATALOG_VARS {
            return e.clone();
        }
        let Ok(sig) = SignatureVector::of_linear(e, &vars) else {
            return e.clone();
        };
        let Some((c, tt)) = sig.as_scaled_truth_table() else {
            return e.clone();
        };
        let Some(catalog) = catalog::shared(&vars) else {
            return e.clone();
        };
        let Some(minimal) = catalog.minimal_expr(&tt) else {
            return e.clone();
        };
        let candidate = linear_combination(&[(c, minimal.clone())]);
        if score(&candidate) < score(e) {
            candidate
        } else {
            e.clone()
        }
    }
}

/// Applies one [`InjectedBug`] to a finished output. Deterministic (the
/// *first* eligible node in pre-order is rewritten), so the corrupted
/// stream is identical across the sequential, batch, and cache-off
/// paths — the fuzzer's oracle, not its differential layer, must catch
/// these.
fn apply_injected_bug(bug: InjectedBug, e: &Expr) -> Expr {
    use mba_expr::BinOp;
    match bug {
        InjectedBug::OffByOne => {
            Expr::binary(BinOp::Add, e.clone(), Expr::one())
        }
        InjectedBug::OrToXor => replace_first(e, &mut |n| match n {
            Expr::Binary(BinOp::Or, a, b) => {
                Some(Expr::Binary(BinOp::Xor, a.clone(), b.clone()))
            }
            _ => None,
        }),
        InjectedBug::AddToOr => replace_first(e, &mut |n| match n {
            Expr::Binary(BinOp::Add, a, b) => {
                Some(Expr::Binary(BinOp::Or, a.clone(), b.clone()))
            }
            _ => None,
        }),
        // Applied inside the fast path (`pipeline.rs`), not at the
        // output level — a corruption of the corner-recovery tier
        // itself. Nothing to do here.
        InjectedBug::SimbaCoeffFlip => e.clone(),
        // Applied where the pipeline interns into the arena
        // (`pipeline.rs`): the freshly-interned id is swapped for its
        // first child's, modelling a stale intern-table entry. Nothing
        // to do at the output level.
        InjectedBug::ArenaStaleId => e.clone(),
        // Applied inside the BDD tier (`pipeline.rs` flips the root
        // edge's complement flag between build and extraction). Nothing
        // to do at the output level.
        InjectedBug::BddComplementFlip => e.clone(),
    }
}

/// Rewrites the first (pre-order) node `f` accepts; returns the input
/// unchanged when no node matches.
fn replace_first(e: &Expr, f: &mut impl FnMut(&Expr) -> Option<Expr>) -> Expr {
    fn walk(e: &Expr, f: &mut impl FnMut(&Expr) -> Option<Expr>, done: &mut bool) -> Expr {
        if *done {
            return e.clone();
        }
        if let Some(replacement) = f(e) {
            *done = true;
            return replacement;
        }
        match e {
            Expr::Const(_) | Expr::Var(_) => e.clone(),
            Expr::Unary(op, a) => Expr::unary(*op, walk(a, f, done)),
            Expr::Binary(op, a, b) => {
                let left = walk(a, f, done);
                let right = walk(b, f, done);
                Expr::binary(*op, left, right)
            }
        }
    }
    let mut done = false;
    walk(e, f, &mut done)
}

/// Simplicity score: MBA alternation dominates (it is the paper's
/// solving-difficulty driver), then AST size, then printed length.
fn score(e: &Expr) -> (usize, usize, usize) {
    (
        metrics::alternation(e),
        e.node_count(),
        e.to_string().len(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use mba_expr::Valuation;

    fn simplify(src: &str) -> String {
        Simplifier::new().simplify(&src.parse().unwrap()).to_string()
    }

    #[track_caller]
    fn assert_equiv(src: &str, expected: &str) {
        let got = simplify(src);
        assert_eq!(got, expected, "simplifying `{src}`");
    }

    // ------------------------------------------------------------------
    // Linear MBA (§4.1–§4.3).
    // ------------------------------------------------------------------

    #[test]
    fn paper_running_example() {
        assert_equiv("2*(x|y) - (~x&y) - (x&~y)", "x+y");
    }

    #[test]
    fn example_1_identity() {
        // x − y == (x⊕y) + 2(x∨¬y) + 2 (derived in §2.1 Example 1).
        assert_equiv("(x^y) + 2*(x|~y) + 2", "x-y");
    }

    #[test]
    fn hackers_delight_addition_encodings() {
        for src in [
            "(x|y) + (~x|y) - ~x",
            "(x|y) + y - (~x&y)",
            "(x^y) + 2*y - 2*(~x&y)",
            "y + (x&~y) + (x&y)",
        ] {
            assert_equiv(src, "x+y");
        }
    }

    #[test]
    fn final_step_recovers_single_bitwise_ops() {
        assert_equiv("x + y - 2*(x&y)", "x^y");
        assert_equiv("x + y - (x&y)", "x|y");
        assert_equiv("(x|y) - (x&y)", "x^y");
        // ¬x = −x−1 folds back to the bitwise form.
        assert_equiv("-x - 1", "~x");
    }

    #[test]
    fn constants_fold() {
        assert_equiv("3 + 4", "7");
        assert_equiv("x + 2 - 2", "x");
        assert_equiv("(x&~x) + 5", "5");
        assert_equiv("x ^ x", "0");
        assert_equiv("x & x", "x");
    }

    // ------------------------------------------------------------------
    // Polynomial MBA (§4.4).
    // ------------------------------------------------------------------

    #[test]
    fn figure_1_poly_reduces_to_xy() {
        assert_equiv("(x&~y)*(~x&y) + (x&y)*(x|y)", "x*y");
    }

    #[test]
    fn squared_xor_identity_proved_by_polynomials() {
        // (x⊕y)² = (x∨y)² − 2(x∨y)(x∧y) + (x∧y)²: both sides expand to
        // the same canonical polynomial over {x, y, x∧y}.
        let s = Simplifier::new();
        let lhs: Expr = "(x^y)*(x^y)".parse().unwrap();
        let rhs: Expr = "(x|y)*(x|y) - 2*((x|y)*(x&y)) + (x&y)*(x&y)"
            .parse()
            .unwrap();
        assert_eq!(s.proves_equivalent(&lhs, &rhs), Some(true));
        // The polynomial certificate is one-sided: unequal polys do not
        // disprove equivalence.
        let unrelated: Expr = "x + 1".parse().unwrap();
        assert_eq!(s.proves_equivalent(&lhs, &unrelated), Some(false));
    }

    #[test]
    fn rejected_expansion_still_cleans_subterms() {
        // (x∧y)·(x∨y) = x·y is a *relation between atoms* the polynomial
        // view cannot witness, so the product is kept — but the
        // structural pass still folds the trailing `+ 0`.
        assert_equiv("(x&y)*(x|y) + 0", "(x&y)*(x|y)");
        // The relation is visible to the polynomial certificate when the
        // left side is written in basis form, though:
        let s = Simplifier::new();
        let a: Expr = "(x&y)*(x + y - (x&y))".parse().unwrap();
        let b: Expr = "x*y - (x - (x&y))*(y - (x&y))".parse().unwrap();
        assert_eq!(s.proves_equivalent(&a, &b), Some(true));
    }

    // ------------------------------------------------------------------
    // Non-polynomial MBA (§4.4–§4.5).
    // ------------------------------------------------------------------

    #[test]
    fn section_4_5_common_subexpression_example() {
        assert_equiv(
            "((x&~y) - (~x&y) | z) + ((x&~y) - (~x&y) & z)",
            "x-y+z",
        );
    }

    #[test]
    fn not_of_arithmetic_reduces() {
        // ¬(x−1) = −x: the case §6.1 reports MBA-Solver's prototype
        // missing; the opaque-abstraction pipeline handles it.
        assert_equiv("~(x - 1)", "-x");
        assert_equiv("~(x + y)", "-x-y-1");
    }

    #[test]
    fn nonpoly_with_shared_opaque_term() {
        // (t|z) + (t&z) = t + z with t = x*y (a genuinely opaque term).
        assert_equiv("(x*y | z) + (x*y & z)", "x*y+z");
    }

    #[test]
    fn xor_of_equal_arithmetic_is_zero() {
        assert_equiv("(x+y) ^ (x+y)", "0");
        assert_equiv("(x+y) & (x+y)", "x+y");
        assert_equiv("(x*y) | (x*y)", "x*y");
    }

    // ------------------------------------------------------------------
    // Robustness and semantics preservation.
    // ------------------------------------------------------------------

    #[test]
    fn never_worse_than_input() {
        let s = Simplifier::new();
        for src in [
            "x",
            "x*y*z",
            "(x-y)|((z*z)^~x)",
            "~(~(~x))",
            "x & 3",
        ] {
            let e: Expr = src.parse().unwrap();
            let out = s.simplify(&e);
            assert!(
                score(&out) <= score(&e),
                "simplify made `{src}` worse: `{out}`"
            );
        }
    }

    #[test]
    fn semantics_preserved_on_random_inputs() {
        let s = Simplifier::new();
        let cases = [
            "2*(x|y) - (~x&y) - (x&~y)",
            "(x&~y)*(~x&y) + (x&y)*(x|y)",
            "((x&~y) - (~x&y) | z) + ((x&~y) - (~x&y) & z)",
            "~(x - 1)",
            "(x*y | z) + (x*y & z)",
            "x + y - 2*(x&y)",
            "x & 3",
            "~0",
            "(x ^ y ^ z) * (x & y & z) - 17",
        ];
        let inputs = [
            (0u64, 0u64, 0u64),
            (1, 2, 3),
            (u64::MAX, 1, 0x1234_5678),
            (0xdead_beef_dead_beef, 0xfeed_face_cafe_f00d, 42),
        ];
        for src in cases {
            let e: Expr = src.parse().unwrap();
            let out = s.simplify(&e);
            for &(x, y, z) in &inputs {
                let v = Valuation::new().with("x", x).with("y", y).with("z", z);
                for w in [8u32, 32, 64] {
                    assert_eq!(
                        e.eval(&v, w),
                        out.eval(&v, w),
                        "`{src}` -> `{out}` differs at ({x},{y},{z}) width {w}"
                    );
                }
            }
        }
    }

    #[test]
    fn stage_spans_and_result_counters_populate() {
        let s = Simplifier::new();
        let d = s.simplify_detailed(&"2*(x|y) - (~x&y) - (x&~y)".parse().unwrap());
        assert_eq!(d.output.to_string(), "x+y");
        // A polynomial input still exercises the truth-table route (the
        // linear input above is claimed by the simba fast path).
        s.simplify(&"x*y + 2*(x&y)".parse().unwrap());
        let snap = s.metrics().snapshot();
        assert_eq!(snap.counter("core.result.exprs"), 2);
        assert_eq!(snap.counter("core.result.bailouts"), 0);
        assert!(snap.counter("core.result.rounds") >= d.rounds as u64);
        assert_eq!(snap.counter("core.result.class.linear"), 1);
        assert_eq!(snap.counter("core.result.class.poly"), 1);
        // Every pipeline stage ran at least once across the two inputs,
        // including the corner-recovery fast path.
        for stage in [
            "core.stage.signature.micros",
            "core.stage.basis.micros",
            "core.stage.simba.micros",
            "core.stage.poly_reduce.micros",
            "core.stage.rewrite.micros",
            "core.stage.final_fold.micros",
        ] {
            let h = snap.histogram(stage).unwrap_or_else(|| {
                panic!("{stage} never recorded")
            });
            assert!(h.count > 0, "{stage} never recorded");
        }
    }

    #[test]
    fn shared_registry_aggregates_across_simplifiers() {
        let obs = Arc::new(MetricsRegistry::new());
        let cache = Arc::new(mba_sig::SigCache::new());
        let a = Simplifier::with_metrics(
            SimplifyConfig::default(),
            Arc::clone(&cache),
            Arc::clone(&obs),
        );
        let b = Simplifier::with_metrics(
            SimplifyConfig::default(),
            Arc::clone(&cache),
            Arc::clone(&obs),
        );
        a.simplify(&"x + y - (x&y)".parse().unwrap());
        b.simplify(&"x + y - 2*(x&y)".parse().unwrap());
        assert_eq!(obs.snapshot().counter("core.result.exprs"), 2);
    }

    #[test]
    fn cache_hits_accumulate() {
        let s = Simplifier::new();
        let e: Expr = "2*(x|y) - (~x&y) - (x&~y)".parse().unwrap();
        s.simplify(&e);
        let misses_first = s.cache_stats().misses;
        s.simplify(&e);
        let stats = s.cache_stats();
        assert!(stats.hits > 0, "second run must hit the lookup table");
        assert!(misses_first > 0);
        assert!(stats.hit_rate() > 0.0);
        assert_eq!(stats.lookups(), stats.hits + stats.misses);
        s.clear_cache();
        assert_eq!(s.cache_stats(), CacheStats::default());
    }

    #[test]
    fn cache_can_be_disabled() {
        let s = Simplifier::with_config(SimplifyConfig {
            use_cache: false,
            ..SimplifyConfig::default()
        });
        let e: Expr = "x + y - 2*(x&y)".parse().unwrap();
        assert_eq!(s.simplify(&e).to_string(), "x^y");
        assert_eq!(s.cache_stats(), CacheStats::default());
    }

    #[test]
    fn batch_jobs_zero_one_and_many_are_byte_identical() {
        // `jobs == 0` resolves to available parallelism; any worker
        // count must leave outputs unchanged (input order, byte-level).
        let exprs: Vec<Expr> = [
            "2*(x|y) - (~x&y) - (x&~y)",
            "x + y - 2*(x&y)",
            "(x&~y)*(~x&y) + (x&y)*(x|y)",
            "~(x - 1)",
            "2*(x|y) - (~x&y) - (x&~y)",
            "(x*y | z) + (x*y & z)",
        ]
        .iter()
        .map(|s| s.parse().unwrap())
        .collect();
        let reference: Vec<String> = {
            let s = Simplifier::new();
            exprs.iter().map(|e| s.simplify(e).to_string()).collect()
        };
        for jobs in [0usize, 1, 64] {
            let s = Simplifier::new();
            let got: Vec<String> = s
                .simplify_batch_with_jobs(&exprs, jobs)
                .iter()
                .map(|r| r.output.to_string())
                .collect();
            assert_eq!(got, reference, "jobs={jobs} diverged");
        }
    }

    #[test]
    fn final_step_can_be_disabled() {
        let s = Simplifier::with_config(SimplifyConfig {
            final_step: false,
            ..SimplifyConfig::default()
        });
        let e: Expr = "x + y - 2*(x&y)".parse().unwrap();
        // Without the final step the ∧-basis form is already normal.
        assert_eq!(s.simplify(&e).to_string(), "x+y-2*(x&y)");
    }

    #[test]
    fn adaptive_basis_never_loses_to_and_basis() {
        let and_solver = Simplifier::new();
        let adaptive = Simplifier::with_config(SimplifyConfig {
            basis: Basis::Adaptive,
            ..SimplifyConfig::default()
        });
        for src in [
            "2*(x|y) - (~x&y) - (x&~y)",
            "x + y - (x&y)",
            "(x&~y)*(~x&y) + (x&y)*(x|y)",
            "~(x - 1)",
            "3*(x|~y) - 5*(~x&y) + 2*(x^y)",
        ] {
            let e: Expr = src.parse().unwrap();
            let a = and_solver.simplify(&e);
            let ad = adaptive.simplify(&e);
            let s = |e: &Expr| {
                (metrics::alternation(e), e.node_count(), e.to_string().len())
            };
            assert!(s(&ad) <= s(&a), "adaptive lost on {src}: {ad} vs {a}");
            // Still semantically equal.
            let v = Valuation::new().with("x", 1234).with("y", 77);
            assert_eq!(a.eval(&v, 64), ad.eval(&v, 64), "{src}");
        }
    }

    #[test]
    fn or_basis_produces_equivalent_results() {
        let s = Simplifier::with_config(SimplifyConfig {
            basis: Basis::Or,
            ..SimplifyConfig::default()
        });
        let e: Expr = "2*(x|y) - (~x&y) - (x&~y)".parse().unwrap();
        let out = s.simplify(&e);
        let v = Valuation::new().with("x", 77).with("y", 13);
        assert_eq!(out.eval(&v, 64), 90);
    }

    #[test]
    fn detailed_reporting() {
        let s = Simplifier::new();
        let e: Expr = "((x&~y) - (~x&y) | z) + ((x&~y) - (~x&y) & z)"
            .parse()
            .unwrap();
        let d = s.simplify_detailed(&e);
        assert_eq!(d.output.to_string(), "x-y+z");
        assert!(d.rounds >= 1);
        assert!(!d.bailed);
        assert!(d.output_metrics.alternation < d.input_metrics.alternation);
    }

    #[test]
    fn injected_bugs_corrupt_deterministically() {
        // Fault injection is for the verify subsystem's self-tests: it
        // must actually break semantics, identically on repeat runs.
        for (bug, src) in [
            (InjectedBug::OrToXor, "x | y"),
            (InjectedBug::AddToOr, "x + y"),
            (InjectedBug::OffByOne, "x"),
            // SimbaCoeffFlip zeroes the first recovered coefficient
            // inside the linear fast path, so `x` collapses to `0`.
            (InjectedBug::SimbaCoeffFlip, "x"),
            // ArenaStaleId swaps the interned root for its first child
            // inside the arena-keyed fast path, so `x + y` collapses to
            // `x` (6 ≠ 3 at the probe valuation below).
            (InjectedBug::ArenaStaleId, "x + y"),
            // BddComplementFlip complements the root edge of the BDD
            // tier's diagram, so this 13-variable negated disjunction
            // (too wide for any 2^t-row tier) comes back as the plain
            // disjunction — and the flipped render scores *better* than
            // the input, so the corruption survives the score guard
            // (252 ≠ 3 at the probe valuation, unbound vars reading 0).
            (
                InjectedBug::BddComplementFlip,
                "~(x | y | z | w | a | b | c | d | e | f | g | h | i)",
            ),
        ] {
            let broken = Simplifier::with_config(SimplifyConfig {
                injected_bug: Some(bug),
                ..SimplifyConfig::default()
            });
            let e: Expr = src.parse().unwrap();
            let a = broken.simplify(&e);
            let b = broken.simplify(&e);
            assert_eq!(a, b, "{bug:?} must be deterministic");
            let v = Valuation::new().with("x", 3).with("y", 3);
            assert_ne!(
                e.eval(&v, 8),
                a.eval(&v, 8),
                "{bug:?} failed to corrupt `{src}` -> `{a}`"
            );
        }
    }

    // ------------------------------------------------------------------
    // The SiMBA fast path and the semi-linear tier.
    // ------------------------------------------------------------------

    /// The linear fast path recovers coefficients from corner
    /// evaluations but expands them through the same ∧-basis renderer,
    /// so disabling it must not change a single output byte.
    #[test]
    fn fast_path_off_is_byte_identical() {
        let on = Simplifier::new();
        let off = Simplifier::with_config(SimplifyConfig {
            use_simba: false,
            ..SimplifyConfig::default()
        });
        for src in [
            "2*(x|y) - (~x&y) - (x&~y)",
            "(x^y) + 2*(x|~y) + 2",
            "x + 2*y + (x&y) - 3*(x^y) + 4",
            "(x & 240) + (x & ~240)",
            "(x | 5) + (x & 5)",
            "x*y + 2*(x&y)",
            "((x&~y) - (~x&y) | z) + ((x&~y) - (~x&y) & z)",
            "-(3*(x&y)) + 200*x",
        ] {
            let e: Expr = src.parse().unwrap();
            assert_eq!(
                on.simplify(&e).to_string(),
                off.simplify(&e).to_string(),
                "fast path changed output bytes for `{src}`"
            );
        }
    }

    /// The arena routes classification, corner recovery, and signature
    /// extraction through interned node ids, but every id-level port is
    /// tape- and table-identical to its tree-walking twin — so turning
    /// the arena off must not change a single output byte.
    #[test]
    fn arena_off_is_byte_identical() {
        let on = Simplifier::new();
        let off = Simplifier::with_config(SimplifyConfig {
            use_arena: false,
            ..SimplifyConfig::default()
        });
        for src in [
            "2*(x|y) - (~x&y) - (x&~y)",
            "(x^y) + 2*(x|~y) + 2",
            "x + 2*y + (x&y) - 3*(x^y) + 4",
            "(x & 240) + (x & ~240)",
            "(x | 5) + (x & 5)",
            "x*y + 2*(x&y)",
            "((x&~y) - (~x&y) | z) + ((x&~y) - (~x&y) & z)",
            "-(3*(x&y)) + 200*x",
            "~(x - 1)",
        ] {
            let e: Expr = src.parse().unwrap();
            assert_eq!(
                on.simplify(&e).to_string(),
                off.simplify(&e).to_string(),
                "arena changed output bytes for `{src}`"
            );
        }
        // The arena-on run actually interned something; the off run's
        // arena stayed empty.
        assert!(!on.arena().is_empty(), "arena-on run never interned");
        assert_eq!(off.arena().len(), 0, "arena-off run interned");
    }

    /// At or below the truth-table variable cap the BDD tier never
    /// fires, so turning it off must not change a single output byte —
    /// and the result reports neither a BDD firing nor a skip.
    #[test]
    fn bdd_off_is_byte_identical() {
        let on = Simplifier::new();
        let off = Simplifier::with_config(SimplifyConfig {
            use_bdd: false,
            ..SimplifyConfig::default()
        });
        for src in [
            "2*(x|y) - (~x&y) - (x&~y)",
            "(x^y) + 2*(x|~y) + 2",
            "x + 2*y + (x&y) - 3*(x^y) + 4",
            "(x & 240) + (x & ~240)",
            "x*y + 2*(x&y)",
            "((x&~y) - (~x&y) | z) + ((x&~y) - (~x&y) & z)",
            "(a&b&c&d&e&f) + (a|b) - (a|b)",
        ] {
            let e: Expr = src.parse().unwrap();
            let d_on = on.simplify_detailed(&e);
            let d_off = off.simplify_detailed(&e);
            assert!(!d_on.used_bdd, "BDD fired below the cap for `{src}`");
            assert!(d_on.skipped.is_none(), "spurious skip for `{src}`");
            assert_eq!(
                d_on.output.to_string(),
                d_off.output.to_string(),
                "BDD toggle changed output bytes for `{src}`"
            );
        }
    }

    /// Semi-linear identities from the worked examples (arXiv
    /// 2406.10016 §3): constants inside the bitwise layer reduce via
    /// grouped corner recovery.
    #[test]
    fn semi_linear_identities_reduce() {
        for (src, want) in [
            ("(x & 240) + (x & ~240)", "x"),
            ("(x | 5) + (x & 5)", "x+5"),
            ("(x ^ 85) ^ 85", "x"),
            ("(x | 3) - 3", "x&-4"),
            ("(x & 12) + ~(x & 12)", "-1"),
            ("(x & 3) + (x & 12) + (x & ~15)", "x"),
        ] {
            let e: Expr = src.parse().unwrap();
            let out = Simplifier::new().simplify(&e);
            assert_eq!(out.to_string(), want, "simplifying `{src}`");
            // The reduction must be an identity at every width.
            for (x, y) in [(0u64, 0u64), (3, 5), (255, 1), (u64::MAX, 77), (0x1234_5678, 42)] {
                let v = Valuation::new().with("x", x).with("y", y);
                for w in [8u32, 16, 32, 64] {
                    assert_eq!(e.eval(&v, w), out.eval(&v, w), "`{src}` at width {w}");
                }
            }
        }
    }

    /// Shapes reclassified from non-poly to semi-linear must come out
    /// unchanged or strictly simpler — never worse.
    #[test]
    fn reclassified_shapes_never_get_worse() {
        for src in [
            "x & 3",
            "(x | 5) - y",
            "2*(x ^ 7) + (x & y)",
            "~(x & 12) + 4*y",
            "(x ^ 85) | (y & 10)",
        ] {
            let e: Expr = src.parse().unwrap();
            let d = Simplifier::new().simplify_detailed(&e);
            assert!(
                d.output.node_count() <= e.node_count(),
                "`{src}` got worse: `{}`",
                d.output
            );
            for (x, y) in [(0u64, 0u64), (3, 5), (255, 1), (u64::MAX, 77)] {
                let v = Valuation::new().with("x", x).with("y", y);
                for w in [8u32, 32, 64] {
                    assert_eq!(e.eval(&v, w), d.output.eval(&v, w), "`{src}` at width {w}");
                }
            }
        }
    }

    /// Tier tags are derived deterministically from who claimed the
    /// result.
    #[test]
    fn tier_tags_name_the_claiming_tier() {
        let s = Simplifier::new();
        for (src, want) in [
            ("2*(x|y) - (~x&y) - (x&~y)", SimplifyTier::Linear),
            ("(x | 5) + (x & 5)", SimplifyTier::SemiLinear),
            ("(x&~y)*(~x&y) + (x&y)*(x|y)", SimplifyTier::Poly),
            ("x*y", SimplifyTier::Unchanged),
        ] {
            let e: Expr = src.parse().unwrap();
            let d = s.simplify_detailed(&e);
            assert_eq!(d.tier, want, "`{src}` -> `{}`", d.output);
        }
        assert_eq!(SimplifyTier::SemiLinear.to_string(), "semi-linear");
    }

    #[test]
    fn six_variable_linear_mba() {
        // Comfortably inside the truth-table tier's 12-variable cap.
        let e: Expr = "(a&b&c&d&e&f) + (a|b) - (a|b)".parse().unwrap();
        assert_eq!(Simplifier::new().simplify(&e).to_string(), "a&b&c&d&e&f");
    }

    #[test]
    fn seven_variable_bitwise_folds_additive_noise() {
        // Seven variables still fit the truth-table tier (cap 12): the
        // `+ 0` folds away and the conjunction itself survives exactly.
        let e: Expr = "(a&b&c&d&e&f&g) + 0".parse().unwrap();
        let out = Simplifier::new().simplify(&e);
        let v: Valuation = ["a", "b", "c", "d", "e", "f", "g"]
            .iter()
            .map(|n| (mba_expr::Ident::new(*n), u64::MAX))
            .collect();
        assert_eq!(out.eval(&v, 64), u64::MAX);
    }
}
