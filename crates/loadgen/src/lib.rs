//! `ets-loadgen` — the closed/open-loop serving workload harness.
//!
//! The paper's honey infrastructure served live SMTP traffic for months;
//! this crate turns that serving path into a benchmarkable system, and
//! it is the one driver of the five Table 5 outcomes at a socket. It
//! drives an [`ets_smtp::server::SmtpServer`] — in-process, or a
//! standalone `ets-smtp` via `--target ADDR` — with a
//! deterministic mix of the five traffic classes the collector observed
//! — spam, receiver typos, reflection typos, SMTP typos, and probe
//! bounces — plus the protocol-fault behaviours of Table 5 (garbage,
//! slowloris stalls, silent drops), measures per-request latency against
//! the *scheduled* start time (so queueing delay is charged to the
//! server, not silently absorbed — the coordinated-omission correction),
//! and emits a `bench_serve.json` report with achieved RPS, latency
//! quantiles, and the observed-vs-expected outcome taxonomy.
//!
//! Layering mirrors the rest of the workspace:
//!
//! * [`scenario`] — pure, deterministic: what each connection does.
//! * [`stats`] — pure, commutative: what happened, mergeable across
//!   workers in any order.
//! * [`runner`] — sockets, pacing, threads; it times requests through
//!   `ets_obs::clock`, so the crate itself never reads the clock.
//! * [`report`] — renders the JSON artifact with sorted keys.

#![forbid(unsafe_code)]

pub mod report;
pub mod runner;
pub mod scenario;
pub mod stats;
