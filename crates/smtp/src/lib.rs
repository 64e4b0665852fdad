//! # ets-smtp
//!
//! The SMTP substrate of the email-typosquatting reproduction.
//!
//! The protocol logic is *sans-io*, in the smoltcp style: the server and
//! client are pure state machines ([`session::ServerSession`],
//! [`client::ClientSession`]) that consume protocol lines and emit replies
//! and events, with no sockets anywhere in sight. Two drivers exist:
//!
//! * an **in-memory driver** ([`pipe`]) that runs a client session against
//!   a server session directly — this is what the large-scale simulations
//!   (50,995-domain honey-probe campaigns) use;
//! * a **TCP driver** ([`server`], [`net_client`]) over `std::net`: one
//!   worker pool fed by a bounded connection queue, the only way the
//!   server runs sessions — this is what the loopback examples,
//!   integration tests and the standalone `ets-smtp` binary use to prove
//!   the state machines speak real SMTP over real sockets.
//!
//! [`fault`] names the five delivery outcomes of Table 5. The honey
//! campaign derives them from each domain's simulated `SmtpProfile`
//! through the in-memory driver; `ets-loadgen` scenarios enact them
//! against the TCP driver.
//!
//! The TCP driver is instrumented by [`telemetry`]: per-phase latency
//! histograms (accept→banner, command, policy, DATA, whole-session),
//! in-flight gauges, a Table 5 outcome-taxonomy counter family, and a
//! 1-in-N sampled session ring — all scrapeable live through
//! `ets_obs::serve` (`ets-smtp --telemetry ADDR`). Session timing reads
//! `ets_obs::clock`; this crate never reads the clock itself. Driving
//! the server through the five Table 5 outcomes is `ets-loadgen`'s job
//! (`ets-loadgen --target ADDR` for a standalone `ets-smtp`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod codec;
pub mod command;
pub mod fault;
pub mod net_client;
pub mod pipe;
pub mod reply;
pub mod server;
pub mod session;
pub mod telemetry;

pub use client::{ClientSession, Email};
pub use codec::LineCodec;
pub use command::Command;
pub use fault::DeliveryOutcome;
pub use reply::Reply;
pub use session::{ReceivedEmail, ServerPolicy, ServerSession};
