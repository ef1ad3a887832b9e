//! Counters the layers already expose, read as deltas around a pass.

use mba_obs::Snapshot;

use crate::metrics::Values;

/// Process-global counters of the signature, synthesis and BDD layers.
pub struct LayerGlobals {
    simba: mba_sig::SimbaStats,
    synth: mba_synth::SynthStats,
    bdd: mba_bdd::BddStats,
}

impl LayerGlobals {
    /// Reads the counters now.
    pub fn read() -> LayerGlobals {
        LayerGlobals {
            simba: mba_sig::simba_stats(),
            synth: mba_synth::synth_stats(),
            bdd: mba_bdd::bdd_stats(),
        }
    }

    /// Records the deltas since `self` into `layer`.
    pub fn record_since(&self, layer: &mut Values) {
        let now = LayerGlobals::read();
        let simba = now.simba.since(&self.simba);
        let synth = now.synth.since(&self.synth);
        let bdd = now.bdd.since(&self.bdd);
        for (name, v) in [
            ("simba.hits", simba.hits),
            ("simba.fallbacks", simba.fallbacks),
            ("synth.attempts", synth.attempts),
            ("synth.hits", synth.hits),
            ("synth.candidates", synth.candidates),
            ("bdd.canonicalizations", bdd.canonicalizations),
            ("bdd.apply_hits", bdd.apply_hits),
            ("bdd.nodes", bdd.nodes),
        ] {
            layer.insert(name, v as f64);
        }
    }
}

/// The core stages' inclusive time and call counts, and the result
/// counters, from a simplifier registry snapshot (or a delta of one).
/// Stage sums overlap — `poly_reduce` contains `signature`, `basis` and
/// `simba` and re-enters itself — so they are never added up.
pub fn record_core_registry(snap: &Snapshot, layer: &mut Values) {
    for (stage, incl, calls) in [
        (
            "poly_reduce",
            "core.stage.poly_reduce.incl_ms",
            "core.stage.poly_reduce.calls",
        ),
        (
            "signature",
            "core.stage.signature.incl_ms",
            "core.stage.signature.calls",
        ),
        (
            "basis",
            "core.stage.basis.incl_ms",
            "core.stage.basis.calls",
        ),
        (
            "simba",
            "core.stage.simba.incl_ms",
            "core.stage.simba.calls",
        ),
        (
            "rewrite",
            "core.stage.rewrite.incl_ms",
            "core.stage.rewrite.calls",
        ),
        (
            "final_fold",
            "core.stage.final_fold.incl_ms",
            "core.stage.final_fold.calls",
        ),
        (
            "synth",
            "core.stage.synth.incl_ms",
            "core.stage.synth.calls",
        ),
    ] {
        let (sum, count) = snap
            .histogram(&format!("core.stage.{stage}.micros"))
            .map_or((0, 0), |h| (h.sum, h.count));
        layer.insert(incl, sum as f64 / 1e3);
        layer.insert(calls, count as f64);
    }
    layer.insert("core.rounds", snap.counter("core.result.rounds") as f64);
    layer.insert("core.bailouts", snap.counter("core.result.bailouts") as f64);
}
