//! `serve_mixed`: closed-loop traffic against an in-process `mba_serve`
//! server.
//!
//! The server runs with 2 workers, the reactor and the default cache
//! budget. Two client connections (one per core of the reference host)
//! each send their next request only after the previous reply arrives.
//! Requests are the `mba-verify` case stream (5% wide bitwise, 75% of
//! the rest obfuscated) at width 64; a disjoint prefix of it warms the
//! resident cache during set-up. Each pass uses fresh stream indices, so the
//! server's result cache never answers a measured request from an
//! earlier one.

use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use mba_expr::{Expr, MbaClass};
use mba_obs::json::json_escape;
use mba_serve::{Client, Response, ServeMode, Server, ServerConfig, ServerState};
use mba_verify::{generate_case, CaseConfig};

use crate::layers::{record_core_registry, LayerGlobals};
use crate::metrics::Values;
use crate::oracle::{eval_agrees, response_output};
use crate::trace::Tracer;
use crate::{Opts, Run, SETUP_REPEATS};

const WORKERS: usize = 2;
const CONNECTIONS: usize = 2;
const WIDTH: u32 = 64;
/// Stream indices `0..WARM` warm the cache during set-up.
const WARM: u64 = 3 * BLOCK;
/// Requests per pass; pass 1 fixes the exact counts.
const PASS: u64 = 13 * BLOCK;
/// Warm-up requests in flight at once (well under the queue capacity).
const WARM_WINDOW: usize = 32;
/// Every block of this many consecutive requests holds exactly the
/// stream's expected 5% of wide-bitwise cases, at `WIDE_SLOTS`; the
/// other requests are drawn as the stream draws them (75% obfuscated).
/// Drawn per request, the count of wide-bitwise requests, which set the
/// latency tail, would vary by about 14% from seed to seed.
const BLOCK: u64 = 80;
/// Spread out, and on different obfuscation kinds (`index % 5`).
const WIDE_SLOTS: [u64; 4] = [0, 21, 42, 63];

struct Case {
    expr: Expr,
    text: String,
}

fn cases(seed: u64, from: u64, count: u64) -> Vec<Case> {
    (from..from + count)
        .map(|i| {
            let wide = WIDE_SLOTS.contains(&(i % BLOCK));
            let config = CaseConfig {
                wide_bitwise_fraction: if wide { 1.0 } else { 0.0 },
                obfuscated_fraction: 0.75,
                ..CaseConfig::default()
            };
            let expr = generate_case(seed, i, &config).expr;
            let text = expr.to_string();
            Case { expr, text }
        })
        .collect()
}

fn request_line(id: u64, expr: &str) -> String {
    format!(
        "{{\"id\":{id},\"expr\":\"{}\",\"width\":{WIDTH}}}",
        json_escape(expr)
    )
}

/// A running server and the connections driving it.
struct Live {
    state: Arc<ServerState>,
    handle: JoinHandle<std::io::Result<()>>,
    clients: Vec<Client>,
}

fn io(what: &str) -> impl Fn(std::io::Error) -> String + '_ {
    move |e| format!("{what}: {e}")
}

/// Binds and starts the server, connects, and warms the cache.
fn start(seed: u64) -> Result<Live, String> {
    let server = Server::bind(ServerConfig {
        workers: WORKERS,
        mode: ServeMode::Reactor,
        ..ServerConfig::default()
    })
    .map_err(io("bind"))?;
    let addr = server.local_addr();
    let state = server.state();
    let handle = std::thread::spawn(move || server.run());
    let mut clients = Vec::new();
    for _ in 0..CONNECTIONS {
        clients.push(Client::connect(addr).map_err(io("connect"))?);
    }
    let mut live = Live {
        state,
        handle,
        clients,
    };
    let warm = cases(seed, 0, WARM);
    let client = &mut live.clients[0];
    for (w, window) in warm.chunks(WARM_WINDOW).enumerate() {
        let base = (w * WARM_WINDOW) as u64;
        for (i, case) in window.iter().enumerate() {
            client
                .send_raw(&request_line(base + i as u64, &case.text))
                .map_err(io("warm-up send"))?;
        }
        for _ in window {
            let reply = client.recv().map_err(io("warm-up reply"))?;
            if let Some(code) = reply.error() {
                return Err(format!("warm-up request failed `{code}`: {}", reply.raw));
            }
        }
    }
    Ok(live)
}

/// Drains and stops the server, waiting for its thread.
fn stop(mut live: Live) -> Result<(), String> {
    let ack = live.clients[0].shutdown().map_err(io("shutdown"))?;
    if let Some(code) = ack.error() {
        return Err(format!("shutdown refused `{code}`"));
    }
    drop(live.clients);
    match live.handle.join() {
        Ok(Ok(())) => Ok(()),
        Ok(Err(e)) => Err(format!("server exited with {e}")),
        Err(_) => Err("server thread panicked".into()),
    }
}

/// One measured request.
struct Sent {
    latency_ns: u64,
    output: Result<String, String>,
}

/// Runs `pass` over the connections, closed loop; with a deadline,
/// stops sending once it passes. Returns replies in stream order.
fn run_pass(
    live: &mut Live,
    pass: &[Case],
    first_id: u64,
    tracer: &mut Tracer,
    deadline: Option<Instant>,
) -> (Vec<Option<Sent>>, Duration) {
    let start = Instant::now();
    let mut forks: Vec<Tracer> = (0..CONNECTIONS).map(|_| tracer.fork()).collect();
    let mut results: Vec<Vec<(usize, Sent)>> = std::thread::scope(|scope| {
        let workers: Vec<_> = live
            .clients
            .iter_mut()
            .zip(forks.iter_mut())
            .enumerate()
            .map(|(c, (client, tracer))| {
                scope.spawn(move || {
                    let mut sent = Vec::new();
                    let mut lost: Option<String> = None;
                    for i in (c..pass.len()).step_by(CONNECTIONS) {
                        if deadline.is_some_and(|d| Instant::now() >= d) {
                            break;
                        }
                        let id = first_id + i as u64;
                        let t = Instant::now();
                        let output = if let Some(why) = &lost {
                            Err(format!("no response: connection lost earlier ({why})"))
                        } else {
                            let request = tracer.open("query", id, None);
                            let span = tracer.open("round_trip", id, request);
                            let reply: std::io::Result<Response> =
                                client.simplify(id, &pass[i].text, WIDTH, None);
                            tracer.close(span);
                            if let Err(e) = &reply {
                                lost = Some(e.to_string());
                            }
                            let output = response_output(id, reply);
                            tracer.close(request);
                            output
                        };
                        let latency_ns = t.elapsed().as_nanos() as u64;
                        sent.push((i, Sent { latency_ns, output }));
                    }
                    sent
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("client thread panicked"))
            .collect()
    });
    let elapsed = start.elapsed();
    for fork in forks {
        tracer.absorb(fork);
    }
    let mut ordered: Vec<Option<Sent>> = (0..pass.len()).map(|_| None).collect();
    for (i, sent) in results.iter_mut().flat_map(|r| r.drain(..)) {
        ordered[i] = Some(sent);
    }
    (ordered, elapsed)
}

/// The server's `{"cmd":"stats"}` reply, over connection 0.
fn server_stats(live: &mut Live) -> Result<Response, String> {
    live.clients[0].stats().map_err(io("stats"))
}

fn stat_delta(before: &Response, after: &Response, field: &str) -> f64 {
    let get = |r: &Response| r.num_field(field).unwrap_or(0.0);
    get(after) - get(before)
}

/// One timed set-up: stream generation, bind, connect and warm-up.
fn set_up(seed: u64, run: &mut Run, gen_ms: &mut Vec<f64>) -> Result<(Live, Vec<Case>), String> {
    let t = Instant::now();
    let pass = cases(seed, WARM, PASS);
    gen_ms.push(t.elapsed().as_secs_f64() * 1e3);
    let live = start(seed)?;
    run.setup_s.push(t.elapsed().as_secs_f64());
    Ok((live, pass))
}

/// Runs `serve_mixed` under `opts`.
pub fn run(opts: &Opts) -> Result<Run, String> {
    let mut run = Run::default();
    let mut gen_ms = Vec::new();
    let (mut server, first_cases) = set_up(opts.seed, &mut run, &mut gen_ms)?;

    let mut untraced = Tracer::new(false, 0);
    let (first, first_elapsed) = run_pass(&mut server, &first_cases, WARM, &mut untraced, None);
    run.peak_rss_mib = crate::host::peak_rss_mib();
    run.measured_s = first_elapsed.as_secs_f64();
    run.passes = 1;
    let mut passes = vec![(first_cases, first)];
    if opts.trace {
        stop(server)?;
        let mut traced_server = start(opts.seed)?;
        let (cases, first) = &passes[0];
        let mut tracer = Tracer::new(true, 2 * cases.len());
        let stats_before = server_stats(&mut traced_server)?;
        let snap_before = traced_server.state.metrics().snapshot();
        let cache_before = traced_server.state.cache_stats();
        let evictions_before = traced_server.state.sig_cache().evictions();
        let globals = LayerGlobals::read();
        let (traced, traced_elapsed) = run_pass(&mut traced_server, cases, WARM, &mut tracer, None);
        globals.record_since(&mut run.layer);
        let stats_after = server_stats(&mut traced_server)?;
        let snap = traced_server.state.metrics().snapshot().since(&snap_before);
        record_core_registry(&snap, &mut run.layer);
        let cache = traced_server.state.cache_stats().since(&cache_before);
        let layer = &mut run.layer;
        layer.insert("sig.cache_lookups", cache.lookups() as f64);
        layer.insert("sig.cache_hit_rate", cache.hit_rate());
        layer.insert(
            "sig.evictions",
            (traced_server.state.sig_cache().evictions() - evictions_before) as f64,
        );
        record_serve(&stats_before, &stats_after, &snap, &tracer, layer);
        layer.insert(
            "bench.trace_overhead",
            traced_elapsed.as_secs_f64() / first_elapsed.as_secs_f64() - 1.0,
        );
        stop(traced_server)?;
        run.tracer = Some(tracer);
        let output = |s: &Option<Sent>| s.as_ref().map(|s| s.output.clone());
        for (case, (a, b)) in cases.iter().zip(first.iter().zip(&traced)) {
            if output(a) != output(b) {
                run.tally.fail(
                    &case.text,
                    format!(
                        "nondeterministic: replied {:?}, then {:?}",
                        output(a),
                        output(b)
                    ),
                );
            }
        }
        run.tally.attempted += traced.len() as u64;
    } else {
        let budget = opts.seconds;
        let mut next = WARM + PASS;
        while run.measured_s < budget {
            let pass = cases(opts.seed, next, PASS);
            let deadline = Instant::now() + Duration::from_secs_f64(budget - run.measured_s);
            let (sent, elapsed) = run_pass(&mut server, &pass, next, &mut untraced, Some(deadline));
            run.measured_s += elapsed.as_secs_f64();
            run.passes += 1;
            next += PASS;
            passes.push((pass, sent));
        }
        stop(server)?;
    }

    for _ in 1..SETUP_REPEATS {
        stop(set_up(opts.seed, &mut run, &mut gen_ms)?.0)?;
    }
    run.layer
        .insert("gen.corpus_ms", crate::stats::median(&gen_ms));

    let oracle_start = Instant::now();
    let mut exact = Exact::default();
    for (p, (pass, sent)) in passes.iter().enumerate() {
        for (i, (case, s)) in pass.iter().zip(sent).enumerate() {
            let Some(s) = s else { continue };
            run.tally.attempted += 1;
            run.latencies_ms.push(s.latency_ns as f64 / 1e6);
            let output = s.output.clone().and_then(|text| {
                let output: Expr = text
                    .parse()
                    .map_err(|e| format!("output `{text}` does not parse: {e}"))?;
                eval_agrees(&case.expr, &output, &[WIDTH, 8, 1], opts.seed ^ i as u64)
                    .map_err(|why| format!("output `{text}`: {why}"))?;
                Ok((text, output))
            });
            match &output {
                Err(why) => run.tally.fail(&case.text, why),
                Ok(_) if p > 0 => {}
                Ok((text, output)) => exact.add(case, text, output),
            }
            if p == 0 {
                exact.n += 1;
            }
        }
    }
    run.layer.insert(
        "bench.oracle_ms",
        oracle_start.elapsed().as_secs_f64() * 1e3,
    );
    exact.record(&mut run);
    Ok(run)
}

/// Counts over pass 1 that must repeat exactly.
#[derive(Default)]
struct Exact {
    n: u64,
    answered: u64,
    input_nodes: u64,
    output_nodes: u64,
    nodes_ratio_sum: f64,
    tiers: [u64; 4],
    digest: u64,
}

const TIER_NAMES: [&str; 4] = [
    "core.tier.linear",
    "core.tier.semi_linear",
    "core.tier.poly",
    "core.tier.unchanged",
];

impl Exact {
    fn add(&mut self, case: &Case, text: &str, output: &Expr) {
        if self.answered == 0 {
            self.digest = crate::host::FNV_BASIS;
        }
        self.answered += 1;
        self.input_nodes += case.expr.node_count() as u64;
        self.output_nodes += output.node_count() as u64;
        self.nodes_ratio_sum += output.node_count() as f64 / case.expr.node_count().max(1) as f64;
        // The reply carries no tier tag: an unchanged output is
        // `unchanged`, anything else counts under the input's class
        // (a synthesis acceptance included; `synth.hits` counts those).
        let tier = if text == case.text {
            3
        } else {
            match case.expr.mba_class() {
                MbaClass::Linear => 0,
                MbaClass::SemiLinear => 1,
                MbaClass::Polynomial | MbaClass::NonPolynomial => 2,
            }
        };
        self.tiers[tier] += 1;
        self.digest = crate::host::fnv1a(self.digest, format!("{text}\n").as_bytes());
    }

    fn record(&self, run: &mut Run) {
        let answered_share = self.answered as f64 / self.n.max(1) as f64;
        let ratio = self.nodes_ratio_sum / self.answered.max(1) as f64;
        for values in [&mut run.e2e, &mut run.exact] {
            values.insert("decided_share", answered_share);
            values.insert("output_nodes_ratio", ratio);
        }
        for (name, n) in TIER_NAMES.into_iter().zip(self.tiers) {
            run.exact.insert(name, n as f64);
        }
        run.exact.insert("core.tier.synthesis", 0.0);
        run.digest = self.digest;
        if run.tracer.is_some() {
            for (name, n) in TIER_NAMES.into_iter().zip(self.tiers) {
                run.layer.insert(name, n as f64);
            }
            run.layer
                .insert("expr.input_nodes", self.input_nodes as f64);
            run.layer
                .insert("expr.output_nodes", self.output_nodes as f64);
        }
    }
}

/// The serving layer's own view, from `{"cmd":"stats"}` deltas and the
/// registry delta, and the client's view from the spans.
fn record_serve(
    before: &Response,
    after: &Response,
    snap: &mba_obs::Snapshot,
    tracer: &Tracer,
    layer: &mut Values,
) {
    let d = |field: &str| stat_delta(before, after, field);
    let wait_ms = d("queue_wait_micros_total") / 1e3;
    let service_ms = d("queue_service_micros_total") / 1e3;
    let p95 = |metric: &str| {
        snap.histogram(metric)
            .map_or(0.0, |h| h.approx_quantile(0.95) as f64 / 1e3)
    };
    layer.insert("serve.queue_wait_ms", wait_ms);
    layer.insert("serve.queue_wait_p95_ms", p95("serve.queue.wait.micros"));
    layer.insert("serve.service_ms", service_ms);
    layer.insert("serve.service_p95_ms", p95("serve.queue.service.micros"));
    let hits = d("cache_hits");
    let lookups = hits + d("cache_misses");
    layer.insert(
        "serve.cache_hit_rate",
        if lookups > 0.0 { hits / lookups } else { 0.0 },
    );
    layer.insert("serve.overloaded", d("overloaded"));
    layer.insert("serve.deadline_expired", d("deadline_expired"));
    layer.insert("serve.internal_errors", d("internal_errors"));

    let self_times = tracer.self_times();
    let ms = |name: &str| self_times.get(name).map_or(0.0, |t| t.self_ns as f64 / 1e6);
    let requests = self_times.get("round_trip").map_or(0, |t| t.count).max(1) as f64;
    let served = d("queue_service_count").max(1.0);
    layer.insert("serve.round_trip_ms", ms("round_trip"));
    layer.insert(
        "serve.unattributed_ms",
        ms("round_trip") / requests - (wait_ms + service_ms) / served,
    );
    layer.insert("bench.unattributed_per_query_ms", ms("query") / requests);
}
