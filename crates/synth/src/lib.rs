//! `mba-synth`: what is left of the removed enumerative synthesis tier.
//!
//! The tier accepted rewrites on probe evidence alone (a width-1 truth
//! table plus a few dozen full-width valuations), and the benchmark's
//! correctness gate caught it emitting non-equivalent outputs, so it
//! was deleted rather than proven (`DESIGN.md` §15). This stub exists
//! only because the end-to-end benchmark (`e2ebench/`) still imports
//! [`SynthStats`] and [`synth_stats`]; it goes in the next change to
//! the benchmark.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Counters of the removed synthesis tier. Always zero; kept only for
/// the benchmark's import and removed with it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SynthStats {
    /// Eligible synthesis queries (always 0).
    pub attempts: u64,
    /// Accepted substitutions (always 0).
    pub hits: u64,
    /// Enumerated candidates (always 0).
    pub candidates: u64,
}

impl SynthStats {
    /// Counter-wise difference against an earlier snapshot.
    pub fn since(&self, earlier: &SynthStats) -> SynthStats {
        SynthStats {
            attempts: self.attempts - earlier.attempts,
            hits: self.hits - earlier.hits,
            candidates: self.candidates - earlier.candidates,
        }
    }
}

/// Reads the synthesis counters: all zeros, since nothing produces
/// synthesis results any more. Kept only for the benchmark's import.
pub fn synth_stats() -> SynthStats {
    SynthStats::default()
}
