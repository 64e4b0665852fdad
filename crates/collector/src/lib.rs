//! # ets-collector
//!
//! The Section-4 measurement apparatus: everything between "an SMTP
//! transaction completed on a typo domain" and "a number in the paper".
//!
//! * [`time`] — the simulated study clock (June 4 2016 – January 15 2017).
//! * [`infra`] — the 76 registered study domains, their VPS mapping, and
//!   collection windows with outages (the gaps visible in Figures 3/4).
//! * [`corpus`] — synthetic labeled corpora: an Enron-like ham corpus with
//!   planted sensitive identifiers (Table 2's ground truth) and the four
//!   spam-evaluation datasets of Table 3.
//! * [`spamscore`] — the SpamAssassin stand-in: a rule-and-token scorer
//!   with local-mode thresholding.
//! * [`extract`] — Textract stand-in: per-format attachment text
//!   extraction (including simulated OCR).
//! * [`scrub`] — the sensitive-information filter: dedicated recognizers
//!   for the HIPAA identifier list, salted-hash replacement, digit
//!   zeroing.
//! * [`crypto`] — ChaCha20 (RFC 8439) storage encryption.
//! * [`traffic`] — the workload generator driven by the typing-error
//!   model: spam campaigns, receiver/reflection/SMTP typos.
//! * [`pipeline`] — the Figure-2 end-to-end processing pipeline
//!   (tokenize → extract → scrub → encrypt).
//! * [`funnel`] — the five-layer spam/typo classification funnel.
//! * [`stream`] — the bounded-memory streaming driver: per-day traffic
//!   generation and feature extraction fanned out through
//!   `ets_parallel::stream_map`'s claim window, committed in calendar
//!   order to the funnel and to the caller's email closure.
//! * [`analysis`] — yearly projections, per-domain concentration,
//!   persistence, attachment and sensitive-info statistics.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod corpus;
pub mod crypto;
pub mod extract;
pub mod funnel;
pub mod infra;
pub mod pipeline;
pub mod scrub;
pub mod spamscore;
pub mod stream;
pub mod time;
pub mod traffic;

pub use funnel::{Funnel, FunnelVerdict};
pub use infra::{CollectedEmail, CollectionInfra};
pub use stream::{stream_collect, StreamFunnel};
pub use time::SimDate;
pub use traffic::{TrafficConfig, TrafficGenerator};
