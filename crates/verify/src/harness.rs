//! The differential fuzzing harness.
//!
//! Each iteration generates one case (a pure function of
//! `(seed, index)`), runs it through the simplifier's entry points —
//! the shared cache-on path, a cache-off path, the batch path, and
//! (when no bug is injected) a fast-path-off path, an arena-off path,
//! and a BDD-off path — and then interrogates
//! the results:
//!
//! * all outputs must be **byte-identical** (the PR-1 invariant:
//!   caching, scheduling, the simba fast path, and the hash-consed
//!   arena are not allowed to change results),
//! * the output must be **equivalent to the input** per the tiered
//!   [`EquivalenceOracle`],
//! * for obfuscator cases the output must also agree with the known
//!   **ground truth** by evaluation.
//!
//! Any violation is a [`Discrepancy`]; the harness immediately
//! [`shrink`]s it to a minimal reproducer before reporting.
//!
//! Iterations are processed in chunks: the batch-path simplification
//! of a chunk *is* the PR-1 worker pool (`simplify_batch_with_jobs`),
//! and per-case verification fans out over the same work-stealing
//! atomic-index pool. Because cases and oracle RNG streams derive from
//! `(seed, index)` alone, the verdict stream is independent of `--jobs`.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use mba_expr::Expr;
use mba_obs::MetricsRegistry;
use mba_sig::SigCache;
use mba_solver::{Simplifier, SimplifyConfig};
use rand::rngs::StdRng;

use crate::generate::{case_rng, generate_case, CaseConfig, CaseKind, FuzzCase};
use crate::oracle::{EquivalenceOracle, Mismatch, OracleConfig, OracleStats, Verdict};
use crate::shrink::{shrink, ShrinkStats};

/// Which simplifier entry point produced an output.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimplifyPath {
    /// Shared `Simplifier` with the lookup table enabled.
    Cached,
    /// Fresh configuration with `use_cache: false`.
    Uncached,
    /// `simplify_batch_with_jobs` over the whole chunk.
    Batch,
    /// Configuration with `use_simba: false` — the truth-table route,
    /// pinning the fast path's byte-identity contract.
    NoSimba,
    /// Configuration with `use_arena: false` — the tree-walking route,
    /// pinning the hash-consed arena's byte-identity contract.
    NoArena,
    /// Configuration with `use_bdd: false` — pinning the BDD
    /// canonicalization tier's contract that results it never touched
    /// are byte-identical (the comparison is skipped when the cached
    /// result reports `used_bdd`, where divergence is the point).
    NoBdd,
}

impl std::fmt::Display for SimplifyPath {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            SimplifyPath::Cached => "cached",
            SimplifyPath::Uncached => "uncached",
            SimplifyPath::Batch => "batch",
            SimplifyPath::NoSimba => "nosimba",
            SimplifyPath::NoArena => "noarena",
            SimplifyPath::NoBdd => "nobdd",
        })
    }
}

/// What kind of invariant a discrepancy violates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DiscrepancyKind {
    /// The simplifier changed semantics: `input ≢ output`.
    Unsound(Mismatch),
    /// Two simplify paths produced different trees for the same input.
    PathDivergence {
        /// First differing path.
        left: SimplifyPath,
        /// Second differing path.
        right: SimplifyPath,
    },
    /// An obfuscator case disagrees with its own ground truth — the
    /// *generator* is unsound, not the simplifier.
    GeneratorUnsound(Mismatch),
}

impl std::fmt::Display for DiscrepancyKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DiscrepancyKind::Unsound(m) => write!(f, "unsound: {m}"),
            DiscrepancyKind::PathDivergence { left, right } => {
                write!(f, "path divergence: {left} vs {right}")
            }
            DiscrepancyKind::GeneratorUnsound(m) => write!(f, "generator unsound: {m}"),
        }
    }
}

/// One confirmed, shrunk fuzzing failure.
#[derive(Debug, Clone)]
pub struct Discrepancy {
    /// Iteration index (replay with the same seed to regenerate).
    pub iteration: u64,
    /// How the failing case was constructed.
    pub case_kind: CaseKind,
    /// The original failing input.
    pub input: Expr,
    /// The simplifier's output for the original input (cached path).
    pub output: Expr,
    /// Which invariant broke.
    pub kind: DiscrepancyKind,
    /// The minimal reproducer (still fails the same predicate).
    pub shrunk: Expr,
    /// Shrinking effort counters.
    pub shrink_stats: ShrinkStats,
}

/// Fuzzer configuration.
#[derive(Debug, Clone)]
pub struct FuzzConfig {
    /// Root seed; the whole run is a pure function of it.
    pub seed: u64,
    /// Iterations to run (may stop early on time budget or
    /// `max_discrepancies`).
    pub iterations: u64,
    /// Worker threads (0 = available parallelism).
    pub jobs: usize,
    /// Optional wall-clock budget, checked at chunk boundaries.
    pub time_budget: Option<Duration>,
    /// Iterations per batch-simplify chunk.
    pub chunk_size: usize,
    /// Case generation settings.
    pub case: CaseConfig,
    /// Oracle settings.
    pub oracle: OracleConfig,
    /// Simplifier settings (self-tests plant an
    /// [`mba_solver::InjectedBug`] here).
    pub simplify: SimplifyConfig,
    /// Stop after this many discrepancies.
    pub max_discrepancies: usize,
    /// Predicate-call budget per shrink.
    pub shrink_attempts: u64,
}

impl Default for FuzzConfig {
    fn default() -> Self {
        FuzzConfig {
            seed: 42,
            iterations: 1_000,
            jobs: 0,
            time_budget: None,
            chunk_size: 64,
            case: CaseConfig::default(),
            oracle: OracleConfig::default(),
            simplify: SimplifyConfig::default(),
            max_discrepancies: 8,
            shrink_attempts: 2_000,
        }
    }
}

/// Aggregate results of a fuzzing run.
#[derive(Debug, Clone, Default)]
pub struct FuzzReport {
    /// The seed the run used.
    pub seed: u64,
    /// Iterations actually executed.
    pub iterations: u64,
    /// Wall-clock time of the run.
    pub wall_time: Duration,
    /// Cases per generation category, `(kind, count)` sorted by kind.
    pub per_kind: Vec<(CaseKind, u64)>,
    /// Oracle tier counters, merged across workers.
    pub oracle: OracleStats,
    /// Total AST nodes across all inputs.
    pub input_nodes: u64,
    /// Total AST nodes across all (cached-path) outputs.
    pub output_nodes: u64,
    /// All confirmed discrepancies, shrunk and sorted by iteration.
    pub discrepancies: Vec<Discrepancy>,
    /// Total shrinking effort.
    pub shrink: ShrinkStats,
    /// Whether the run stopped before `iterations` (time budget or
    /// discrepancy cap).
    pub stopped_early: bool,
}

impl FuzzReport {
    /// True when the run found nothing wrong.
    pub fn is_clean(&self) -> bool {
        self.discrepancies.is_empty()
    }
}

/// Outcome of checking a single case (pre-shrink).
struct CaseOutcome {
    index: u64,
    kind: CaseKind,
    input_nodes: u64,
    output_nodes: u64,
    failure: Option<(FuzzCase, Expr, DiscrepancyKind)>,
}

/// The differential fuzzer. Construct with a [`FuzzConfig`], then
/// [`Fuzzer::run`].
pub struct Fuzzer {
    config: FuzzConfig,
    oracle: EquivalenceOracle,
    cached: Simplifier,
    uncached: Simplifier,
    nosimba: Simplifier,
    noarena: Simplifier,
    nobdd: Simplifier,
}

/// Salt separating the oracle's RNG stream from the generator's, so
/// random valuations are not correlated with the case they check.
const ORACLE_SALT: u64 = 0x6f72_6163_6c65_5f31;

impl Fuzzer {
    /// Builds a fuzzer; the cached/uncached simplifier pair and the
    /// oracle are shared by all workers. Both simplifiers record their
    /// stage spans into one registry ([`Fuzzer::metrics`]), so the
    /// fuzz run's stage breakdown covers both paths combined.
    pub fn new(config: FuzzConfig) -> Fuzzer {
        let obs = Arc::new(MetricsRegistry::new());
        let cached = Simplifier::with_metrics(
            SimplifyConfig {
                use_cache: true,
                ..config.simplify.clone()
            },
            Arc::new(SigCache::new()),
            Arc::clone(&obs),
        );
        let uncached = Simplifier::with_metrics(
            SimplifyConfig {
                use_cache: false,
                ..config.simplify.clone()
            },
            Arc::new(SigCache::new()),
            Arc::clone(&obs),
        );
        let nosimba = Simplifier::with_metrics(
            SimplifyConfig {
                use_simba: false,
                use_cache: true,
                ..config.simplify.clone()
            },
            Arc::new(SigCache::new()),
            Arc::clone(&obs),
        );
        let noarena = Simplifier::with_metrics(
            SimplifyConfig {
                use_arena: false,
                use_cache: true,
                ..config.simplify.clone()
            },
            Arc::new(SigCache::new()),
            Arc::clone(&obs),
        );
        let nobdd = Simplifier::with_metrics(
            SimplifyConfig {
                use_bdd: false,
                use_cache: true,
                ..config.simplify.clone()
            },
            Arc::new(SigCache::new()),
            Arc::clone(&obs),
        );
        let oracle = EquivalenceOracle::new(config.oracle.clone());
        Fuzzer {
            config,
            oracle,
            cached,
            uncached,
            nosimba,
            noarena,
            nobdd,
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &FuzzConfig {
        &self.config
    }

    /// The registry shared by both simplification paths; snapshot it
    /// after [`Fuzzer::run`] for the per-stage timing breakdown.
    pub fn metrics(&self) -> &Arc<MetricsRegistry> {
        self.cached.metrics()
    }

    /// Runs the configured number of iterations and reports.
    pub fn run(&self) -> FuzzReport {
        let start = Instant::now();
        let jobs = if self.config.jobs == 0 {
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1)
        } else {
            self.config.jobs
        };
        let mut report = FuzzReport {
            seed: self.config.seed,
            ..FuzzReport::default()
        };
        let mut per_kind: std::collections::BTreeMap<CaseKind, u64> = Default::default();

        let chunk = self.config.chunk_size.max(1) as u64;
        let mut next_iteration = 0u64;
        while next_iteration < self.config.iterations {
            if let Some(budget) = self.config.time_budget {
                if start.elapsed() >= budget {
                    report.stopped_early = true;
                    break;
                }
            }
            if report.discrepancies.len() >= self.config.max_discrepancies {
                report.stopped_early = true;
                break;
            }
            let end = (next_iteration + chunk).min(self.config.iterations);
            let outcomes = self.run_chunk(next_iteration, end, jobs, &mut report.oracle);
            for outcome in outcomes {
                report.iterations += 1;
                *per_kind.entry(outcome.kind).or_default() += 1;
                report.input_nodes += outcome.input_nodes;
                report.output_nodes += outcome.output_nodes;
                if let Some((case, output, kind)) = outcome.failure {
                    if report.discrepancies.len() < self.config.max_discrepancies {
                        let d = self.shrink_discrepancy(case, output, kind);
                        report.shrink.attempts += d.shrink_stats.attempts;
                        report.shrink.accepted += d.shrink_stats.accepted;
                        report.discrepancies.push(d);
                    }
                }
            }
            next_iteration = end;
        }
        report.per_kind = per_kind.into_iter().collect();
        report.wall_time = start.elapsed();
        report
    }

    /// Generates, batch-simplifies, and verifies iterations
    /// `[start, end)` with `jobs` workers.
    fn run_chunk(
        &self,
        start: u64,
        end: u64,
        jobs: usize,
        oracle_stats: &mut OracleStats,
    ) -> Vec<CaseOutcome> {
        let cases: Vec<FuzzCase> = (start..end)
            .map(|i| generate_case(self.config.seed, i, &self.config.case))
            .collect();
        // Borrowed job setup: the batch entry point takes `&[&Expr]`, so
        // no deep clone of the chunk's expressions is paid just to
        // assemble the job list.
        let exprs: Vec<&Expr> = cases.iter().map(|c| &c.expr).collect();

        // The batch path doubles as the worker pool under test.
        let batch_results = self.cached.simplify_batch_refs(&exprs, jobs);

        // Per-case verification over the same work-stealing shape.
        let next = AtomicUsize::new(0);
        let mut tagged: Vec<(OracleStats, Vec<CaseOutcome>)> = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..jobs.clamp(1, cases.len().max(1)))
                .map(|_| {
                    scope.spawn(|| {
                        let mut stats = OracleStats::default();
                        let mut local = Vec::new();
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            let Some(case) = cases.get(i) else { break };
                            local.push(self.check_case(
                                case,
                                &batch_results[i].output,
                                &mut stats,
                            ));
                        }
                        (stats, local)
                    })
                })
                .collect();
            workers
                .into_iter()
                .map(|w| w.join().expect("verify worker panicked"))
                .collect()
        });
        let mut outcomes = Vec::with_capacity(cases.len());
        for (stats, local) in tagged.drain(..) {
            oracle_stats.merge(&stats);
            outcomes.extend(local);
        }
        outcomes.sort_by_key(|o| o.index);
        outcomes
    }

    /// Runs the full invariant stack on one case.
    fn check_case(
        &self,
        case: &FuzzCase,
        batch_output: &Expr,
        stats: &mut OracleStats,
    ) -> CaseOutcome {
        let cached = self.cached.simplify_detailed(&case.expr);
        let (cached_out, cached_used_bdd) = (cached.output, cached.used_bdd);
        let uncached_out = self.uncached.simplify_detailed(&case.expr).output;
        let mut rng = self.oracle_rng(case.index);

        let failure = if cached_out != *batch_output {
            Some((
                case.clone(),
                cached_out.clone(),
                DiscrepancyKind::PathDivergence {
                    left: SimplifyPath::Cached,
                    right: SimplifyPath::Batch,
                },
            ))
        } else if cached_out != uncached_out {
            Some((
                case.clone(),
                cached_out.clone(),
                DiscrepancyKind::PathDivergence {
                    left: SimplifyPath::Cached,
                    right: SimplifyPath::Uncached,
                },
            ))
        } else if self.check_nosimba()
            && cached_out != self.nosimba.simplify_detailed(&case.expr).output
        {
            Some((
                case.clone(),
                cached_out.clone(),
                DiscrepancyKind::PathDivergence {
                    left: SimplifyPath::Cached,
                    right: SimplifyPath::NoSimba,
                },
            ))
        } else if self.check_noarena()
            && cached_out != self.noarena.simplify_detailed(&case.expr).output
        {
            Some((
                case.clone(),
                cached_out.clone(),
                DiscrepancyKind::PathDivergence {
                    left: SimplifyPath::Cached,
                    right: SimplifyPath::NoArena,
                },
            ))
        } else if self.check_nobdd()
            && !cached_used_bdd
            && cached_out != self.nobdd.simplify_detailed(&case.expr).output
        {
            Some((
                case.clone(),
                cached_out.clone(),
                DiscrepancyKind::PathDivergence {
                    left: SimplifyPath::Cached,
                    right: SimplifyPath::NoBdd,
                },
            ))
        } else {
            match self.oracle.check(&case.expr, &cached_out, &mut rng, stats) {
                Verdict::Mismatch(m) => Some((
                    case.clone(),
                    cached_out.clone(),
                    DiscrepancyKind::Unsound(*m),
                )),
                Verdict::Proved(_) | Verdict::Passed => {
                    // Ground-truth cross-check for obfuscator cases.
                    case.target.as_ref().and_then(|target| {
                        self.oracle
                            .refute_by_eval(&cached_out, target, &mut rng, stats)
                            .map(|m| {
                                // Decide who lies: if the *input* already
                                // disagrees with the target, the generator
                                // broke its own contract.
                                let kind = match self.oracle.refute_by_eval(
                                    &case.expr,
                                    target,
                                    &mut rng,
                                    stats,
                                ) {
                                    Some(gm) => DiscrepancyKind::GeneratorUnsound(gm),
                                    None => DiscrepancyKind::Unsound(m),
                                };
                                (case.clone(), cached_out.clone(), kind)
                            })
                    })
                }
            }
        };

        CaseOutcome {
            index: case.index,
            kind: case.kind,
            input_nodes: case.expr.node_count() as u64,
            output_nodes: cached_out.node_count() as u64,
            failure,
        }
    }

    /// Whether the fast-path-off comparison runs. Injected bugs that
    /// live *inside* the fast path (e.g. `SimbaCoeffFlip`) corrupt only
    /// the simba route by design; comparing against the truth-table
    /// route would misattribute them as path divergence before the
    /// oracle can issue the correct unsoundness verdict.
    fn check_nosimba(&self) -> bool {
        self.config.simplify.injected_bug.is_none() && self.config.simplify.use_simba
    }

    /// Whether the arena-off comparison runs. Same reasoning as
    /// [`Fuzzer::check_nosimba`]: `ArenaStaleId` corrupts only the
    /// arena route by design, and the oracle — not the differential
    /// layer — must attribute it as unsoundness.
    fn check_noarena(&self) -> bool {
        self.config.simplify.injected_bug.is_none() && self.config.simplify.use_arena
    }

    /// Whether the BDD-off comparison runs. Same reasoning as
    /// [`Fuzzer::check_nosimba`]: `BddComplementFlip` corrupts only
    /// the BDD route by design. The caller additionally skips the
    /// comparison when the cached result reports `used_bdd` — a fired
    /// canonicalization is *supposed* to differ from the BDD-off
    /// output (and is held to the equivalence oracle instead); only an
    /// untouched result must be byte-invisible.
    fn check_nobdd(&self) -> bool {
        self.config.simplify.injected_bug.is_none() && self.config.simplify.use_bdd
    }

    /// Per-case oracle RNG, decorrelated from the generator stream.
    fn oracle_rng(&self, index: u64) -> StdRng {
        case_rng(self.config.seed ^ ORACLE_SALT, index)
    }

    /// Shrinks a raw failure to a minimal reproducer.
    fn shrink_discrepancy(
        &self,
        case: FuzzCase,
        output: Expr,
        kind: DiscrepancyKind,
    ) -> Discrepancy {
        let index = case.index;
        let predicate: Box<dyn FnMut(&Expr) -> bool + '_> = match &kind {
            DiscrepancyKind::Unsound(_) => {
                let oracle = &self.oracle;
                let uncached = &self.uncached;
                Box::new(move |e: &Expr| {
                    let out = uncached.simplify_detailed(e).output;
                    let mut rng = case_rng(index ^ ORACLE_SALT, 0);
                    let mut scratch = OracleStats::default();
                    !oracle.check(e, &out, &mut rng, &mut scratch).is_ok()
                })
            }
            DiscrepancyKind::PathDivergence { .. } => {
                let uncached = &self.uncached;
                let simplify = self.config.simplify.clone();
                let with_nosimba = self.check_nosimba();
                let with_noarena = self.check_noarena();
                let with_nobdd = self.check_nobdd();
                Box::new(move |e: &Expr| {
                    // Fresh cache-on instance per probe so stale cache
                    // state cannot mask (or fake) the divergence.
                    let fresh = Simplifier::with_config(SimplifyConfig {
                        use_cache: true,
                        ..simplify.clone()
                    });
                    let detailed = fresh.simplify_detailed(e);
                    let a = detailed.output;
                    let b = uncached.simplify_detailed(e).output;
                    let c = fresh
                        .simplify_batch_with_jobs(std::slice::from_ref(e), 2)
                        .remove(0)
                        .output;
                    if a != b || a != c {
                        return true;
                    }
                    if with_nosimba {
                        let nosimba = Simplifier::with_config(SimplifyConfig {
                            use_simba: false,
                            use_cache: true,
                            ..simplify.clone()
                        });
                        if nosimba.simplify_detailed(e).output != a {
                            return true;
                        }
                    }
                    if with_noarena {
                        let noarena = Simplifier::with_config(SimplifyConfig {
                            use_arena: false,
                            use_cache: true,
                            ..simplify.clone()
                        });
                        if noarena.simplify_detailed(e).output != a {
                            return true;
                        }
                    }
                    with_nobdd && !detailed.used_bdd && {
                        let nobdd = Simplifier::with_config(SimplifyConfig {
                            use_bdd: false,
                            use_cache: true,
                            ..simplify.clone()
                        });
                        nobdd.simplify_detailed(e).output != a
                    }
                })
            }
            DiscrepancyKind::GeneratorUnsound(_) => {
                let oracle = &self.oracle;
                let target = case.target.clone().unwrap_or(Expr::Const(0));
                Box::new(move |e: &Expr| {
                    let mut rng = case_rng(index ^ ORACLE_SALT, 1);
                    let mut scratch = OracleStats::default();
                    oracle
                        .refute_by_eval(e, &target, &mut rng, &mut scratch)
                        .is_some()
                })
            }
        };
        let (shrunk, shrink_stats) =
            shrink(&case.expr, self.config.shrink_attempts, predicate);
        Discrepancy {
            iteration: case.index,
            case_kind: case.kind,
            input: case.expr,
            output,
            kind,
            shrunk,
            shrink_stats,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_config(iterations: u64) -> FuzzConfig {
        FuzzConfig {
            iterations,
            jobs: 2,
            ..FuzzConfig::default()
        }
    }

    #[test]
    fn clean_run_on_the_real_simplifier() {
        let report = Fuzzer::new(quick_config(48)).run();
        assert!(
            report.is_clean(),
            "unexpected discrepancies: {:?}",
            report.discrepancies
        );
        assert_eq!(report.iterations, 48);
        assert!(report.oracle.checks >= 48);
        assert!(!report.stopped_early);
    }

    #[test]
    fn reports_are_deterministic_across_job_counts() {
        let run = |jobs| {
            let mut c = quick_config(32);
            c.jobs = jobs;
            Fuzzer::new(c).run()
        };
        let (a, b) = (run(1), run(4));
        assert_eq!(a.oracle, b.oracle);
        assert_eq!(a.per_kind, b.per_kind);
        assert_eq!(a.input_nodes, b.input_nodes);
        assert_eq!(a.output_nodes, b.output_nodes);
    }

    #[test]
    fn simplifier_actually_reduces_the_corpus() {
        let report = Fuzzer::new(quick_config(64)).run();
        assert!(
            report.output_nodes < report.input_nodes,
            "no reduction: {} -> {}",
            report.input_nodes,
            report.output_nodes
        );
    }

    #[test]
    fn discrepancy_cap_stops_the_run() {
        let mut config = quick_config(500);
        config.simplify.injected_bug = Some(mba_solver::InjectedBug::OffByOne);
        config.max_discrepancies = 2;
        let report = Fuzzer::new(config).run();
        assert_eq!(report.discrepancies.len(), 2);
        assert!(report.stopped_early);
        assert!(report.iterations < 500);
    }
}
