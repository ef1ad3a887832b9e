//! The resident MBA simplification server.
//!
//! ```text
//! mba_serve [--addr HOST:PORT] [--workers N] [--queue-capacity N]
//!           [--max-line-bytes N] [--thread-io] [--cache-budget N]
//!           [--cache-snapshot PATH]
//! ```
//!
//! Prints `listening on <addr>` once the socket is bound (port 0 is
//! resolved), serves until a `{"control":"shutdown"}` request, drains
//! in-flight work, and exits 0.
//!
//! Connection I/O defaults to the epoll reactor; `--thread-io` selects
//! the thread-per-connection fallback. `--cache-budget N` caps the
//! signature cache at N entries (0 disables eviction); `--cache-snapshot
//! PATH` warm-starts the cache from PATH at bind and writes it back on
//! shutdown.

use std::process::ExitCode;

use mba_serve::{ServeMode, Server, ServerConfig};

fn usage() -> String {
    "usage: mba_serve [--addr HOST:PORT] [--workers N] [--queue-capacity N] \
     [--max-line-bytes N] [--thread-io] [--cache-budget N] [--cache-snapshot PATH]"
        .to_string()
}

fn parse_args(args: &[String]) -> Result<ServerConfig, String> {
    let mut config = ServerConfig {
        addr: "127.0.0.1:7474".into(),
        ..ServerConfig::default()
    };
    let mut iter = args.iter();
    while let Some(flag) = iter.next() {
        let mut take = |name: &str| -> Result<&String, String> {
            iter.next().ok_or_else(|| format!("{name} requires a value\n{}", usage()))
        };
        match flag.as_str() {
            "--addr" => config.addr = take("--addr")?.clone(),
            "--workers" => {
                config.workers = parse_num(take("--workers")?)?;
            }
            "--queue-capacity" => {
                config.queue_capacity = parse_num(take("--queue-capacity")?)?;
                if config.queue_capacity == 0 {
                    return Err("--queue-capacity must be positive".into());
                }
            }
            "--max-line-bytes" => {
                config.max_line_bytes = parse_num(take("--max-line-bytes")?)?;
                if config.max_line_bytes < 64 {
                    return Err("--max-line-bytes must be at least 64".into());
                }
            }
            "--thread-io" => config.mode = ServeMode::ThreadPerConnection,
            "--cache-budget" => {
                let budget: usize = parse_num(take("--cache-budget")?)?;
                config.cache_budget = (budget > 0).then_some(budget);
            }
            "--cache-snapshot" => {
                config.cache_snapshot = Some(take("--cache-snapshot")?.into());
            }
            "--help" | "-h" => return Err(usage()),
            other => return Err(format!("unknown flag `{other}`\n{}", usage())),
        }
    }
    Ok(config)
}

fn parse_num<T: std::str::FromStr>(s: &str) -> Result<T, String> {
    s.parse()
        .map_err(|_| format!("malformed numeric value `{s}`"))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let config = match parse_args(&args) {
        Ok(c) => c,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };
    let server = match Server::bind(config) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("bind failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    // Scripts scrape this line to learn the resolved port.
    println!("listening on {}", server.local_addr());
    let state = server.state();
    match server.run() {
        Ok(()) => {
            let c = &state.counters;
            eprintln!(
                "shutdown: served={} overloaded={} deadline_expired={} protocol_errors={} internal_errors={} | signature cache: {}",
                c.served.get(),
                c.overloaded.get(),
                c.deadline_expired.get(),
                c.protocol_errors.get(),
                c.internal_errors.get(),
                state.cache_stats(),
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("server error: {e}");
            ExitCode::FAILURE
        }
    }
}
