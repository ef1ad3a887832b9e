//! The paper-corpus workloads.
//!
//! * `paper_e2e` — the Table 6 / Fig. 6 path: each query is parsed,
//!   simplified by a cold `Simplifier` (width 64), rendered, and the
//!   output is checked against the ground truth by the z3-style profile
//!   at width 16 within 2000 conflicts.
//! * `solve_raw` — the Table 2 baseline: the obfuscated query is checked
//!   against its ground truth with no simplification (z3-style, width 8,
//!   300 conflicts), so `core` is bypassed. It solves the same 3000
//!   queries as `paper_e2e`; with the 1002 of the paper's Table 2 setup
//!   the decided share moved by about 14% from seed to seed.
//!
//! Budgets are conflict counts only, so every verdict is a pure function
//! of the code and the seed.

use std::time::{Duration, Instant};

use mba_expr::{parse, Expr};
use mba_gen::{Corpus, CorpusConfig};
use mba_smt::{CheckOutcome, CheckResult, MiterBudget, SmtSolver, SolverProfile};
use mba_solver::{Simplifier, SimplifyTier};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::layers::{record_core_registry, LayerGlobals};
use crate::metrics::Values;
use crate::oracle::{check_verdict, eval_agrees, Verdict};
use crate::trace::Tracer;
use crate::{Opts, Run, SETUP_REPEATS};

/// A corpus workload's fixed parameters.
pub struct Plan {
    /// Corpus samples per category (three categories).
    pub per_category: usize,
    /// Whether queries are simplified before solving.
    pub simplify: bool,
    /// Solver bit width.
    pub solve_width: u32,
    /// Solver conflict budget per query.
    pub conflicts: u64,
}

/// Table 6 / Fig. 6: simplify, then solve.
pub const PAPER_E2E: Plan = Plan {
    per_category: 1000,
    simplify: true,
    solve_width: 16,
    conflicts: 2000,
};

/// Table 2: solve the obfuscated query as is.
pub const SOLVE_RAW: Plan = Plan {
    per_category: 1000,
    simplify: false,
    solve_width: 8,
    conflicts: 300,
};

/// The simplifier's ring width.
const SIMPLIFY_WIDTH: u32 = 64;

/// One query as handed over: the ground truth and the obfuscated form.
struct Query {
    truth: String,
    obfuscated: String,
}

/// What one query produced.
struct Record {
    latency_ns: u64,
    /// The printed output: the simplified expression, or for a raw
    /// solve the verdict.
    output: String,
    verdict: Verdict,
    tier: Option<SimplifyTier>,
    input_nodes: u64,
    output_nodes: u64,
    solve: Option<CheckResult>,
}

/// The corpus as text, its lines shuffled by the seed so that any
/// prefix of a pass mixes the categories.
fn corpus_queries(seed: u64, per_category: usize) -> Vec<Query> {
    let text = Corpus::generate(&CorpusConfig { seed, per_category }).to_text();
    let mut lines: Vec<&str> = text.lines().collect();
    lines.shuffle(&mut StdRng::seed_from_u64(seed));
    lines
        .into_iter()
        .map(|line| {
            let mut fields = line.split('\t').skip(1);
            let mut next = || {
                fields
                    .next()
                    .expect("corpus lines have three fields")
                    .to_string()
            };
            Query {
                truth: next(),
                obfuscated: next(),
            }
        })
        .collect()
}

/// Runs one query through the layers, recording spans around each call.
fn run_query(
    plan: &Plan,
    q: &Query,
    id: u64,
    simplifier: &Simplifier,
    solver: &SmtSolver,
    tracer: &mut Tracer,
) -> Record {
    let start = Instant::now();
    let query = tracer.open("query", id, None);
    let span = tracer.open("parse", id, query);
    let parsed = (parse(&q.obfuscated), parse(&q.truth));
    tracer.close(span);
    let (Ok(input), Ok(truth)) = parsed else {
        tracer.close(query);
        return Record {
            latency_ns: start.elapsed().as_nanos() as u64,
            output: String::new(),
            verdict: Verdict::Failed("corpus line does not parse".into()),
            tier: None,
            input_nodes: 0,
            output_nodes: 0,
            solve: None,
        };
    };
    let mut rendered = None;
    let mut tier = None;
    let simplified;
    let output: &Expr = if plan.simplify {
        let span = tracer.open("simplify", id, query);
        let result = simplifier.simplify_detailed(&input);
        tracer.close(span);
        let span = tracer.open("render", id, query);
        rendered = Some(result.output.to_string());
        tracer.close(span);
        tier = Some(result.tier);
        simplified = result.output;
        &simplified
    } else {
        &input
    };
    let span = tracer.open("solve", id, query);
    let check = solver.check_equivalence_budgeted(
        output,
        &truth,
        plan.solve_width,
        &MiterBudget::conflicts(plan.conflicts),
    );
    tracer.close(span);
    tracer.close(query);
    let latency_ns = start.elapsed().as_nanos() as u64;
    let verdict = check_verdict(&check.outcome);
    Record {
        latency_ns,
        output: rendered.unwrap_or_else(|| verdict_label(&check)),
        verdict,
        tier,
        input_nodes: input.node_count() as u64,
        output_nodes: output.node_count() as u64,
        solve: Some(check),
    }
}

fn verdict_label(check: &CheckResult) -> String {
    let outcome = match check.outcome {
        CheckOutcome::Equivalent => "equivalent",
        CheckOutcome::NotEquivalent(_) => "not-equivalent",
        CheckOutcome::Timeout => "budget-exhausted",
    };
    format!("{outcome} conflicts={}", check.sat_stats.conflicts)
}

/// Runs every query once (or, given a deadline, until it passes).
fn run_pass(
    plan: &Plan,
    queries: &[Query],
    simplifier: &Simplifier,
    solver: &SmtSolver,
    tracer: &mut Tracer,
    deadline: Option<Instant>,
) -> (Vec<Record>, Duration) {
    let start = Instant::now();
    let mut records = Vec::with_capacity(queries.len());
    for (i, q) in queries.iter().enumerate() {
        if deadline.is_some_and(|d| Instant::now() >= d) {
            break;
        }
        records.push(run_query(plan, q, i as u64, simplifier, solver, tracer));
    }
    (records, start.elapsed())
}

fn new_simplifier() -> Simplifier {
    Simplifier::with_config(mba_solver::SimplifyConfig {
        width: SIMPLIFY_WIDTH,
        ..mba_solver::SimplifyConfig::default()
    })
}

/// The corpus seed of pass `k`: pass 0 uses the workload seed itself,
/// later passes draw fresh corpora so a run averages over more inputs.
fn pass_seed(seed: u64, k: u64) -> u64 {
    seed ^ k.wrapping_mul(0x9e37_79b9_7f4a_7c15)
}

/// One timed set-up: corpus generation and construction.
fn set_up(
    plan: &Plan,
    seed: u64,
    run: &mut Run,
    gen_ms: &mut Vec<f64>,
) -> (Vec<Query>, Simplifier, SmtSolver) {
    let start = Instant::now();
    let queries = corpus_queries(seed, plan.per_category);
    gen_ms.push(start.elapsed().as_secs_f64() * 1e3);
    let built = (
        queries,
        new_simplifier(),
        SmtSolver::new(SolverProfile::z3_style()),
    );
    run.setup_s.push(start.elapsed().as_secs_f64());
    built
}

/// Runs `plan` under `opts`.
pub fn run(plan: &Plan, opts: &Opts) -> Run {
    let mut run = Run::default();
    let mut gen_ms = Vec::new();
    let (queries, simplifier, solver) = set_up(plan, opts.seed, &mut run, &mut gen_ms);

    // Pass 1 fixes the exact counts. The traced run repeats it with
    // spans on; the untraced run adds passes over fresh corpora until
    // the time is up, each with a cold simplifier.
    let mut untraced = Tracer::new(false, 0);
    let (first, first_elapsed) =
        run_pass(plan, &queries, &simplifier, &solver, &mut untraced, None);
    drop(simplifier);
    run.peak_rss_mib = crate::host::peak_rss_mib();
    run.measured_s = first_elapsed.as_secs_f64();
    run.passes = 1;
    let mut passes = vec![(queries, first)];
    if opts.trace {
        let queries = &passes[0].0;
        let simplifier = new_simplifier();
        let mut tracer = Tracer::new(true, queries.len() * 5);
        let globals = LayerGlobals::read();
        let (traced, traced_elapsed) =
            run_pass(plan, queries, &simplifier, &solver, &mut tracer, None);
        globals.record_since(&mut run.layer);
        record_layers(&traced, &tracer, &mut run.layer);
        if plan.simplify {
            record_simplifier(&simplifier, &mut run.layer);
        }
        run.layer.insert(
            "bench.trace_overhead",
            traced_elapsed.as_secs_f64() / first_elapsed.as_secs_f64() - 1.0,
        );
        run.tracer = Some(tracer);
        for ((q, r), r1) in queries.iter().zip(&traced).zip(&passes[0].1) {
            if r.output != r1.output || r.verdict != r1.verdict {
                run.tally.fail(
                    &q.obfuscated,
                    format!(
                        "nondeterministic: printed `{}`, then `{}`",
                        r1.output, r.output
                    ),
                );
            }
        }
        run.tally.attempted += traced.len() as u64;
    } else {
        while run.measured_s < opts.seconds {
            let queries =
                corpus_queries(pass_seed(opts.seed, run.passes as u64), plan.per_category);
            let simplifier = new_simplifier();
            let deadline = Instant::now() + Duration::from_secs_f64(opts.seconds - run.measured_s);
            let (records, elapsed) = run_pass(
                plan,
                &queries,
                &simplifier,
                &solver,
                &mut untraced,
                Some(deadline),
            );
            run.measured_s += elapsed.as_secs_f64();
            run.passes += 1;
            passes.push((queries, records));
        }
    }

    for _ in 1..SETUP_REPEATS {
        drop(set_up(plan, opts.seed, &mut run, &mut gen_ms));
    }
    run.layer
        .insert("gen.corpus_ms", crate::stats::median(&gen_ms));

    let oracle_start = Instant::now();
    for (queries, records) in &passes {
        run.tally.attempted += records.len() as u64;
        run.latencies_ms
            .extend(records.iter().map(|r| r.latency_ns as f64 / 1e6));
        check_outputs(plan, queries, records, opts.seed, &mut run);
    }
    run.layer.insert(
        "bench.oracle_ms",
        oracle_start.elapsed().as_secs_f64() * 1e3,
    );
    record_exact(&passes[0].1, &mut run);
    run
}

/// The correctness gate, outside the timed phase: every output must
/// agree with its input under the evaluation oracle, and no solver may
/// refute a known identity.
fn check_outputs(plan: &Plan, queries: &[Query], records: &[Record], seed: u64, run: &mut Run) {
    for (i, (q, r)) in queries.iter().zip(records).enumerate() {
        if let Verdict::Failed(why) = &r.verdict {
            run.tally.fail(&q.obfuscated, why);
            continue;
        }
        if !plan.simplify {
            continue;
        }
        let checked = match (parse(&q.obfuscated), parse(&r.output)) {
            (Ok(input), Ok(output)) => eval_agrees(
                &input,
                &output,
                &[SIMPLIFY_WIDTH, plan.solve_width, 8, 1],
                seed ^ i as u64,
            ),
            (_, Err(e)) => Err(format!("output `{}` does not parse: {e}", r.output)),
            (Err(e), _) => Err(format!("input does not parse: {e}")),
        };
        if let Err(why) = checked {
            run.tally
                .fail(&q.obfuscated, format!("output `{}`: {why}", r.output));
        }
    }
}

/// The counts that must repeat exactly across runs of one build, and
/// the end-to-end shares derived from them.
fn record_exact(first: &[Record], run: &mut Run) {
    let n = first.len().max(1) as f64;
    let count = |f: &dyn Fn(&Record) -> bool| first.iter().filter(|r| f(r)).count() as f64;
    let decided = count(&|r| r.verdict == Verdict::Decided);
    let exhausted = count(&|r| r.verdict == Verdict::Undecided);
    let nodes_ratio = first
        .iter()
        .map(|r| r.output_nodes as f64 / r.input_nodes.max(1) as f64)
        .sum::<f64>()
        / n;
    let conflicts: u64 = first
        .iter()
        .filter_map(|r| r.solve.as_ref())
        .map(|c| c.sat_stats.conflicts)
        .sum();
    for values in [&mut run.e2e, &mut run.exact] {
        values.insert("decided_share", decided / n);
        values.insert("output_nodes_ratio", nodes_ratio);
    }
    run.exact.insert("sat.conflicts", conflicts as f64);
    run.exact.insert("smt.budget_exhausted", exhausted);
    for (name, tier) in TIERS {
        run.exact.insert(name, count(&|r| r.tier == Some(tier)));
    }
    run.digest = first.iter().fold(crate::host::FNV_BASIS, |h, r| {
        crate::host::fnv1a(h, format!("{}\n", r.output).as_bytes())
    });
}

const TIERS: [(&str, SimplifyTier); 5] = [
    ("core.tier.linear", SimplifyTier::Linear),
    ("core.tier.semi_linear", SimplifyTier::SemiLinear),
    ("core.tier.poly", SimplifyTier::Poly),
    ("core.tier.synthesis", SimplifyTier::Synthesis),
    ("core.tier.unchanged", SimplifyTier::Unchanged),
];

/// Per-layer metrics of the traced pass.
fn record_layers(records: &[Record], tracer: &Tracer, layer: &mut Values) {
    let self_ms = tracer.self_times();
    let ms = |name: &str| self_ms.get(name).map_or(0.0, |t| t.self_ns as f64 / 1e6);
    layer.insert("expr.parse_ms", ms("parse"));
    layer.insert("expr.render_ms", ms("render"));
    layer.insert("core.simplify_ms", ms("simplify"));
    layer.insert("smt.solve_ms", ms("solve"));
    layer.insert(
        "bench.unattributed_per_query_ms",
        ms("query") / records.len().max(1) as f64,
    );
    let mut simplify_ms: Vec<f64> = tracer
        .spans()
        .iter()
        .filter(|s| s.name == "simplify")
        .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
        .collect();
    crate::stats::sort(&mut simplify_ms);
    layer.insert(
        "core.simplify_p99_ms",
        crate::stats::percentile(&simplify_ms, 0.99).unwrap_or(0.0),
    );

    layer.insert(
        "expr.input_nodes",
        records.iter().map(|r| r.input_nodes).sum::<u64>() as f64,
    );
    layer.insert(
        "expr.output_nodes",
        records.iter().map(|r| r.output_nodes).sum::<u64>() as f64,
    );
    for (name, tier) in TIERS {
        let n = records.iter().filter(|r| r.tier == Some(tier)).count();
        layer.insert(name, n as f64);
    }
    let checks: Vec<&CheckResult> = records.iter().filter_map(|r| r.solve.as_ref()).collect();
    let sum = |f: &dyn Fn(&CheckResult) -> u64| checks.iter().map(|c| f(c)).sum::<u64>() as f64;
    let solve_s: f64 = checks.iter().map(|c| c.elapsed.as_secs_f64()).sum();
    let propagations = sum(&|c| c.sat_stats.propagations);
    layer.insert(
        "smt.by_rewriting",
        sum(&|c| u64::from(c.solved_by_rewriting)),
    );
    layer.insert(
        "smt.budget_exhausted",
        sum(&|c| u64::from(c.outcome == CheckOutcome::Timeout)),
    );
    layer.insert("sat.conflicts", sum(&|c| c.sat_stats.conflicts));
    layer.insert("sat.propagations", propagations);
    layer.insert("sat.decisions", sum(&|c| c.sat_stats.decisions));
    layer.insert(
        "sat.props_per_s",
        if solve_s > 0.0 {
            propagations / solve_s
        } else {
            0.0
        },
    );
}

/// Counters the simplifier's own registry and caches expose.
fn record_simplifier(simplifier: &Simplifier, layer: &mut Values) {
    let snap = simplifier.metrics().snapshot();
    record_core_registry(&snap, layer);
    layer.insert("core.lookup_hit_rate", simplifier.cache_stats().hit_rate());
    let sig = simplifier.sig_cache().stats();
    layer.insert("sig.cache_lookups", sig.lookups() as f64);
    layer.insert("sig.cache_hit_rate", sig.hit_rate());
    layer.insert("sig.evictions", simplifier.sig_cache().evictions() as f64);
    let arena = simplifier.arena().stats();
    layer.insert("arena.nodes", arena.nodes as f64);
    layer.insert("arena.interned_hits", arena.interned_hits as f64);
}
