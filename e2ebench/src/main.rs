//! The repository benchmark: the paper's simplify → solve path, the raw
//! solve baseline, and closed-loop serving, each checked for
//! correctness.
//!
//! ```text
//! e2ebench --workload paper_e2e|solve_raw|serve_mixed --seed N --seconds S --trace 0|1
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics when
//! untraced, the per-layer metrics when traced. A record of the run
//! (provenance, raw values, exact counts, output digest) is written
//! under `e2ebench/runs/`, and a traced run writes its spans beside it.
//! Any failed query is printed and the exit code is non-zero.

mod host;
mod layers;
mod metrics;
mod oracle;
mod serve;
mod solve;
mod stats;
mod trace;

use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use mba_obs::json::{parse_json, Json};
use metrics::{Values, END_TO_END, PER_LAYER};

/// Set-up is repeated this many times and its median reported. The
/// first set-up feeds the measured phase; the others are timed after it,
/// so the peak memory reading covers a single set-up.
pub const SETUP_REPEATS: usize = 5;

/// The command line.
pub struct Opts {
    workload: String,
    /// Workload seed: the same seed gives the same inputs.
    pub seed: u64,
    /// Measured phase length of an untraced run.
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
}

/// What a workload measured.
#[derive(Default)]
pub struct Run {
    /// Attempted and failed queries.
    pub tally: oracle::Tally,
    /// Passes over the fixed query set (the first is always complete).
    pub passes: usize,
    /// Time spent in measured passes.
    pub measured_s: f64,
    /// Latency of every measured query.
    pub latencies_ms: Vec<f64>,
    /// Peak resident memory once set-up and pass 1 are done, so it does
    /// not depend on how many passes fit in the run.
    pub peak_rss_mib: f64,
    /// Each set-up's duration.
    pub setup_s: Vec<f64>,
    /// End-to-end metrics the workload computes itself.
    pub e2e: Values,
    /// Per-layer metrics (traced runs; `gen.corpus_ms` always).
    pub layer: Values,
    /// Counts over pass 1 that must repeat exactly.
    pub exact: Values,
    /// Hash of pass 1's printed outputs in input order.
    pub digest: u64,
    /// The traced pass's spans.
    pub tracer: Option<trace::Tracer>,
}

const USAGE: &str =
    "usage: e2ebench --workload paper_e2e|solve_raw|serve_mixed --seed N --seconds S --trace 0|1";

fn parse_args(args: &[String]) -> Result<Opts, String> {
    let mut opts = Opts {
        workload: String::new(),
        seed: 11,
        seconds: 35.0,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => opts.workload = value.clone(),
            "--seed" => opts.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => {
                opts.seconds = value.parse().map_err(|e| bad(&e))?;
                if !(opts.seconds > 0.0 && opts.seconds <= 600.0) {
                    return Err(bad(&"must be in (0, 600]"));
                }
            }
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"must be 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !["paper_e2e", "solve_raw", "serve_mixed"].contains(&opts.workload.as_str()) {
        return Err(format!("unknown workload `{}`", opts.workload));
    }
    Ok(opts)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("e2ebench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let run = match opts.workload.as_str() {
        "paper_e2e" => Ok(solve::run(&solve::PAPER_E2E, &opts)),
        "solve_raw" => Ok(solve::run(&solve::SOLVE_RAW, &opts)),
        _ => serve::run(&opts),
    };
    let run = match run {
        Ok(r) => r,
        Err(e) => {
            eprintln!("e2ebench: {} did not run: {e}", opts.workload);
            return ExitCode::FAILURE;
        }
    };
    match finish(&opts, run) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Derives the end-to-end metrics, writes the record, runs the
/// determinism check and prints the result line. Returns whether the
/// run was correct.
fn finish(opts: &Opts, mut run: Run) -> Result<bool, String> {
    let mut e2e = std::mem::take(&mut run.e2e);
    let mut sorted = run.latencies_ms.clone();
    stats::sort(&mut sorted);
    let pct = |p: f64| {
        stats::percentile(&sorted, p).ok_or_else(|| {
            format!(
                "{} samples leave fewer than {} beyond p{}",
                sorted.len(),
                stats::MIN_BEYOND,
                p * 100.0
            )
        })
    };
    e2e.insert("queries_per_s", run.tally.attempted as f64 / run.measured_s);
    e2e.insert("latency_p50_ms", pct(0.5)?);
    e2e.insert("latency_p99_ms", pct(0.99)?);
    e2e.insert("setup_s", stats::median(&run.setup_s));
    e2e.insert("peak_rss_mb", run.peak_rss_mib);

    let provenance = host::Provenance::collect();
    let runs_dir = host::runs_dir();
    let stem = format!(
        "{}-seed{}-trace{}-{}-{}",
        opts.workload,
        opts.seed,
        u8::from(opts.trace),
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.as_millis()),
        std::process::id()
    );
    let mismatches = determinism_mismatches(runs_dir, opts, &provenance.build_id, &run)?;
    for m in &mismatches {
        run.tally.fail(&opts.workload, m);
    }
    let record = record_json(opts, &run, &e2e, &provenance)?;
    std::fs::create_dir_all(runs_dir).map_err(|e| format!("{}: {e}", runs_dir.display()))?;
    let record_path = runs_dir.join(format!("{stem}.json"));
    std::fs::write(&record_path, record).map_err(|e| format!("{}: {e}", record_path.display()))?;
    if let Some(tracer) = &run.tracer {
        let path = runs_dir.join(format!("{stem}.spans.jsonl"));
        let file = std::fs::File::create(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        tracer
            .write_jsonl(&mut std::io::BufWriter::new(file))
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }

    for failure in &run.tally.failures {
        eprintln!("e2ebench: FAILED {failure}");
    }
    let correct = run.tally.failures.is_empty();
    println!(
        "e2ebench: {} seed={} passes={} queries={} failed_share={} measured_s={:.3} latency_samples={} digest={:016x} record={}",
        opts.workload,
        opts.seed,
        run.passes,
        run.tally.attempted,
        run.tally.failed_share(),
        run.measured_s,
        sorted.len(),
        run.digest,
        record_path.display()
    );
    let (defs, values) = if opts.trace {
        let mut layer = metrics::layer_defaults();
        layer.extend(run.layer);
        (PER_LAYER, layer)
    } else {
        (END_TO_END, e2e)
    };
    let line = metrics::result_line(
        correct,
        run.tally.attempted,
        run.tally.failed(),
        defs,
        &values,
    )?;
    let mut out = std::io::stdout().lock();
    writeln!(out, "{line}")
        .and_then(|()| out.flush())
        .map_err(|e| e.to_string())?;
    Ok(correct)
}

/// The run record: everything needed to recompute medians and quartiles
/// and to compare runs.
fn record_json(
    opts: &Opts,
    run: &Run,
    e2e: &Values,
    provenance: &host::Provenance,
) -> Result<String, String> {
    let list = |v: &[f64]| {
        v.iter()
            .map(|x| format!("{x}"))
            .collect::<Vec<_>>()
            .join(",")
    };
    Ok(format!(
        concat!(
            "{{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},\"host\":{},",
            "\"passes\":{},\"measured_s\":{},\"attempted\":{},\"failed\":{},\"failed_share\":{},",
            "\"digest\":\"{:016x}\",\"exact\":{},\"end_to_end\":{},\"per_layer\":{},",
            "\"raw\":{{\"setup_s\":[{}],\"latency_ms\":[{}]}}}}\n"
        ),
        opts.workload,
        opts.seed,
        opts.seconds,
        opts.trace,
        provenance.json(),
        run.passes,
        run.measured_s,
        run.tally.attempted,
        run.tally.failed(),
        run.tally.failed_share(),
        run.digest,
        metrics::values_json(&run.exact)?,
        metrics::values_json(e2e)?,
        metrics::values_json(&run.layer)?,
        list(&run.setup_s),
        list(&run.latencies_ms),
    ))
}

/// Compares this run's digest and exact counts with every earlier
/// record of the same workload, seed and build. The digest is never
/// compared across builds, so a change that alters outputs still passes.
fn determinism_mismatches(
    dir: &Path,
    opts: &Opts,
    build_id: &str,
    run: &Run,
) -> Result<Vec<String>, String> {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return Ok(Vec::new());
    };
    let prefix = format!("{}-seed{}-", opts.workload, opts.seed);
    let mut paths: Vec<PathBuf> = entries
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| {
            p.extension().is_some_and(|x| x == "json")
                && p.file_name()
                    .is_some_and(|n| n.to_string_lossy().starts_with(&prefix))
        })
        .collect();
    paths.sort();
    let digest = format!("{:016x}", run.digest);
    let mut out = Vec::new();
    for path in paths {
        let Ok(doc) = std::fs::read_to_string(&path)
            .map_err(|e| e.to_string())
            .and_then(|s| parse_json(&s))
        else {
            continue;
        };
        let Some(obj) = doc.as_obj() else { continue };
        let str_of = |k: &str| obj.get(k).and_then(Json::as_str);
        let host = obj.get("host").and_then(Json::as_obj);
        if str_of("workload") != Some(opts.workload.as_str())
            || obj.get("seed").and_then(Json::as_u64) != Some(opts.seed)
            || host.and_then(|h| h.get("build_id")).and_then(Json::as_str) != Some(build_id)
        {
            continue;
        }
        let name = path
            .file_name()
            .map_or_else(String::new, |n| n.to_string_lossy().into_owned());
        if str_of("digest") != Some(digest.as_str()) {
            out.push(format!("output digest {digest} differs from {name}"));
        }
        let exact = obj.get("exact").and_then(Json::as_obj);
        for (k, v) in &run.exact {
            let earlier = exact.and_then(|e| e.get(*k)).and_then(Json::as_num);
            if earlier != Some(*v) {
                out.push(format!(
                    "exact count {k}={v} differs from {name} ({earlier:?})"
                ));
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn arguments_are_checked() {
        let o = parse_args(&args("--workload solve_raw --seed 7 --seconds 5 --trace 1")).unwrap();
        assert_eq!((o.seed, o.seconds, o.trace), (7, 5.0, true));
        assert!(parse_args(&args("--workload nope --seed 7")).is_err());
        assert!(parse_args(&args("--workload solve_raw --trace 2")).is_err());
        assert!(parse_args(&args("--workload solve_raw --seconds")).is_err());
        assert!(parse_args(&args("--workload solve_raw --bogus 1")).is_err());
    }
}
