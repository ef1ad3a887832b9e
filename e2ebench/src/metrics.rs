//! The metric catalogue and the result line.
//!
//! `BENCHMARK.json` at the repository root lists the same names, units
//! and directions; a test keeps the two in step.

use std::collections::BTreeMap;

/// One reported metric.
pub struct Def {
    /// Dotted metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `lower` or `higher` (read by the test that checks BENCHMARK.json).
    #[allow(dead_code)]
    pub better: &'static str,
}

const fn def(name: &'static str, unit: &'static str, better: &'static str) -> Def {
    Def { name, unit, better }
}

/// What a user of the system sees; printed by untraced runs.
pub const END_TO_END: &[Def] = &[
    def("queries_per_s", "1/s", "higher"),
    def("latency_p50_ms", "ms", "lower"),
    def("latency_p99_ms", "ms", "lower"),
    def("decided_share", "ratio", "higher"),
    def("output_nodes_ratio", "ratio", "lower"),
    def("setup_s", "s", "lower"),
    def("peak_rss_mb", "MiB", "lower"),
];

/// One layer each; printed by traced runs. Times are totals over the
/// traced pass unless the name says otherwise.
pub const PER_LAYER: &[Def] = &[
    def("gen.corpus_ms", "ms", "lower"),
    def("expr.parse_ms", "ms", "lower"),
    def("expr.render_ms", "ms", "lower"),
    def("expr.input_nodes", "count", "lower"),
    def("expr.output_nodes", "count", "lower"),
    def("core.simplify_ms", "ms", "lower"),
    def("core.simplify_p99_ms", "ms", "lower"),
    def("core.lookup_hit_rate", "ratio", "higher"),
    def("core.rounds", "count", "lower"),
    def("core.bailouts", "count", "lower"),
    def("core.tier.linear", "count", "higher"),
    def("core.tier.semi_linear", "count", "higher"),
    def("core.tier.poly", "count", "higher"),
    def("core.tier.synthesis", "count", "higher"),
    def("core.tier.unchanged", "count", "lower"),
    def("core.stage.poly_reduce.incl_ms", "ms", "lower"),
    def("core.stage.poly_reduce.calls", "count", "lower"),
    def("core.stage.signature.incl_ms", "ms", "lower"),
    def("core.stage.signature.calls", "count", "lower"),
    def("core.stage.basis.incl_ms", "ms", "lower"),
    def("core.stage.basis.calls", "count", "lower"),
    def("core.stage.simba.incl_ms", "ms", "lower"),
    def("core.stage.simba.calls", "count", "lower"),
    def("core.stage.rewrite.incl_ms", "ms", "lower"),
    def("core.stage.rewrite.calls", "count", "lower"),
    def("core.stage.final_fold.incl_ms", "ms", "lower"),
    def("core.stage.final_fold.calls", "count", "lower"),
    def("core.stage.synth.incl_ms", "ms", "lower"),
    def("core.stage.synth.calls", "count", "lower"),
    def("sig.cache_lookups", "count", "lower"),
    def("sig.cache_hit_rate", "ratio", "higher"),
    def("sig.evictions", "count", "lower"),
    def("simba.hits", "count", "higher"),
    def("simba.fallbacks", "count", "lower"),
    def("arena.nodes", "count", "lower"),
    def("arena.interned_hits", "count", "higher"),
    def("synth.attempts", "count", "lower"),
    def("synth.hits", "count", "higher"),
    def("synth.candidates", "count", "lower"),
    def("bdd.canonicalizations", "count", "higher"),
    def("bdd.apply_hits", "count", "higher"),
    def("bdd.nodes", "count", "lower"),
    def("smt.solve_ms", "ms", "lower"),
    def("smt.by_rewriting", "count", "higher"),
    def("smt.budget_exhausted", "count", "lower"),
    def("sat.conflicts", "count", "lower"),
    def("sat.propagations", "count", "lower"),
    def("sat.decisions", "count", "lower"),
    def("sat.props_per_s", "1/s", "higher"),
    def("serve.round_trip_ms", "ms", "lower"),
    def("serve.queue_wait_ms", "ms", "lower"),
    def("serve.queue_wait_p95_ms", "ms", "lower"),
    def("serve.service_ms", "ms", "lower"),
    def("serve.service_p95_ms", "ms", "lower"),
    def("serve.unattributed_ms", "ms", "lower"),
    def("serve.cache_hit_rate", "ratio", "higher"),
    def("serve.overloaded", "count", "lower"),
    def("serve.deadline_expired", "count", "lower"),
    def("serve.internal_errors", "count", "lower"),
    def("bench.unattributed_per_query_ms", "ms", "lower"),
    def("bench.oracle_ms", "ms", "lower"),
    def("bench.trace_overhead", "ratio", "lower"),
];

/// Metric values by name.
pub type Values = BTreeMap<&'static str, f64>;

/// Every per-layer metric at 0: a layer a workload never reaches
/// reports 0, which is the prediction for that pairing.
pub fn layer_defaults() -> Values {
    PER_LAYER.iter().map(|d| (d.name, 0.0)).collect()
}

/// Renders a finite number with all its digits.
///
/// # Errors
///
/// Names the metric when the value is not finite.
fn number(name: &str, v: f64) -> Result<String, String> {
    if v.is_finite() {
        Ok(format!("{v}"))
    } else {
        Err(format!("metric `{name}` is not finite ({v})"))
    }
}

/// The result line: `correct`, `attempted`, `failed` and every metric
/// of `defs` with its unit.
///
/// # Errors
///
/// A metric of `defs` is missing from `values` or is not finite.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    defs: &[Def],
    values: &Values,
) -> Result<String, String> {
    let mut fields = Vec::with_capacity(defs.len());
    for d in defs {
        let v = values
            .get(d.name)
            .ok_or_else(|| format!("metric `{}` was not measured", d.name))?;
        fields.push(format!(
            "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
            d.name,
            number(d.name, *v)?,
            d.unit
        ));
    }
    Ok(format!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
        fields.join(",")
    ))
}

/// Renders values as a JSON object.
///
/// # Errors
///
/// A value is not finite.
pub fn values_json(values: &Values) -> Result<String, String> {
    let fields: Result<Vec<String>, String> = values
        .iter()
        .map(|(k, v)| Ok(format!("\"{k}\":{}", number(k, *v)?)))
        .collect();
    Ok(format!("{{{}}}", fields?.join(",")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mba_obs::json::{parse_json as parse, Json};

    fn listed(doc: &Json, key: &str) -> Vec<(String, String, String)> {
        let Some(Json::Arr(items)) = doc.as_obj().unwrap().get(key) else {
            panic!("BENCHMARK.json has no `{key}` list");
        };
        items
            .iter()
            .map(|m| {
                let m = m.as_obj().unwrap();
                let s = |k: &str| m[k].as_str().unwrap().to_string();
                (s("name"), s("unit"), s("better"))
            })
            .collect()
    }

    fn ours(defs: &[Def]) -> Vec<(String, String, String)> {
        defs.iter()
            .map(|d| (d.name.into(), d.unit.into(), d.better.into()))
            .collect()
    }

    #[test]
    fn catalogue_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        assert_eq!(listed(&doc, "end_to_end"), ours(END_TO_END));
        assert_eq!(listed(&doc, "per_layer"), ours(PER_LAYER));
    }

    #[test]
    fn result_line_has_every_metric_and_refuses_gaps() {
        let values = layer_defaults();
        let line = result_line(true, 3, 0, PER_LAYER, &values).unwrap();
        let doc = parse(&line).unwrap();
        let metrics = doc.as_obj().unwrap()["metrics"].as_obj().unwrap();
        assert_eq!(metrics.len(), PER_LAYER.len());
        assert!(result_line(true, 3, 0, END_TO_END, &values).is_err());
        let mut bad = values;
        bad.insert("gen.corpus_ms", f64::NAN);
        assert!(result_line(true, 3, 0, PER_LAYER, &bad).is_err());
    }
}
