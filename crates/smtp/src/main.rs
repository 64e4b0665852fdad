//! `ets-smtp` — run the loopback SMTP server as a standalone process
//! with the live telemetry plane attached.
//!
//! ```text
//! ets-smtp [--listen ADDR] [--telemetry ADDR] [--hostname H]
//!          [--domains a,b,...] [--read-timeout-ms N] [--sample-every N]
//! ```
//!
//! * `--listen ADDR` — SMTP bind address (default `127.0.0.1:0`).
//! * `--telemetry ADDR` — start the `ets-obs` introspection listener
//!   (`/metrics`, `/snapshot.json`, `/healthz`) on `ADDR`.
//! * `--hostname H` / `--domains a,b` — catch-all policy (defaults:
//!   `mx.gmial.com` accepting `gmial.com`).
//! * `--read-timeout-ms N` — per-connection read timeout (default
//!   30000); a short value lets the `Timeout` taxonomy row resolve
//!   quickly under a driven workload.
//! * `--sample-every N` — session trace sampling rate (default 16).
//!
//! The server runs the default worker pool and serves until killed.
//! To drive it through the five Table 5 outcomes, point
//! `ets-loadgen --target ADDR` at the `--listen` address.

#![forbid(unsafe_code)]

use ets_smtp::server::{ServerOptions, SmtpServer};
use ets_smtp::session::ServerPolicy;
use ets_smtp::telemetry::TelemetryConfig;
use std::io::Write;
use std::process::ExitCode;
use std::time::Duration;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut listen = "127.0.0.1:0".to_owned();
    let mut telemetry_addr: Option<String> = None;
    let mut hostname = "mx.gmial.com".to_owned();
    let mut domains = vec!["gmial.com".to_owned()];
    let mut options = ServerOptions::default();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--listen" => match it.next() {
                Some(v) => listen = v.clone(),
                None => return usage("--listen needs an address"),
            },
            "--telemetry" => match it.next() {
                Some(v) => telemetry_addr = Some(v.clone()),
                None => return usage("--telemetry needs an address"),
            },
            "--hostname" => match it.next() {
                Some(v) => hostname = v.clone(),
                None => return usage("--hostname needs a name"),
            },
            "--domains" => match it.next() {
                Some(v) => domains = v.split(',').map(str::to_owned).collect(),
                None => return usage("--domains needs a comma-separated list"),
            },
            "--read-timeout-ms" => match it.next().and_then(|s| s.parse().ok()) {
                Some(n) => options.read_timeout = Duration::from_millis(n),
                None => return usage("--read-timeout-ms needs an integer"),
            },
            "--sample-every" => match it.next().and_then(|s| s.parse().ok()) {
                Some(n) => {
                    options.telemetry = TelemetryConfig {
                        sample_every: n,
                        ..TelemetryConfig::default()
                    }
                }
                None => return usage("--sample-every needs an integer"),
            },
            other => return usage(&format!("unknown argument {other:?}")),
        }
    }

    let policy = ServerPolicy::catch_all(&hostname, &domains);
    let server = match SmtpServer::bind_with(&listen, policy, options) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot bind {listen}: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("smtp listening on {}", server.addr());

    let _telemetry_server = match telemetry_addr {
        Some(addr) => match ets_obs::serve::serve(&addr) {
            Ok(srv) => {
                println!("telemetry on {}", srv.addr());
                Some(srv)
            }
            Err(e) => {
                eprintln!("cannot bind telemetry {addr}: {e}");
                return ExitCode::FAILURE;
            }
        },
        None => None,
    };
    // Unbuffer the addresses for supervising scripts.
    let _ = std::io::stdout().flush();

    // Serve until killed. No owner consumes accepted messages in this
    // process, so discard them: a full owner channel would otherwise
    // stall every session after the first `owner_queue` deliveries.
    server.received().iter().for_each(drop);
    ExitCode::SUCCESS
}

fn usage(err: &str) -> ExitCode {
    eprintln!("error: {err}");
    eprintln!(
        "usage: ets-smtp [--listen ADDR] [--telemetry ADDR] [--hostname H] [--domains a,b] \
         [--read-timeout-ms N] [--sample-every N]"
    );
    ExitCode::FAILURE
}
