//! The failure taxonomy of Table 5.
//!
//! When the study probed 50,995 typosquatting domains it observed five
//! outcomes: acceptance without error, bounce, timeout, network error, and
//! "other error". [`DeliveryOutcome`] names them. The honey campaign
//! derives one per probed domain from its simulated `SmtpProfile`, and
//! `ets-loadgen` scenarios enact each against the live server.

use serde::{Deserialize, Serialize};
use std::fmt;

/// The outcome categories of Table 5.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum DeliveryOutcome {
    /// Accepted without any error message.
    NoError,
    /// 5xx rejection during the transaction.
    Bounce,
    /// Connection or reply timed out.
    Timeout,
    /// TCP-level failure (refused, reset, unreachable).
    NetworkError,
    /// Anything else (protocol garbage, broken TLS, 4xx weirdness).
    OtherError,
}

impl DeliveryOutcome {
    /// All five categories, in Table 5 row order.
    pub const ALL: [DeliveryOutcome; 5] = [
        DeliveryOutcome::NoError,
        DeliveryOutcome::Bounce,
        DeliveryOutcome::Timeout,
        DeliveryOutcome::NetworkError,
        DeliveryOutcome::OtherError,
    ];
}

impl fmt::Display for DeliveryOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DeliveryOutcome::NoError => "No error",
            DeliveryOutcome::Bounce => "Bounce",
            DeliveryOutcome::Timeout => "Timeout",
            DeliveryOutcome::NetworkError => "Network Error",
            DeliveryOutcome::OtherError => "Other error",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_matches_table5_rows() {
        assert_eq!(DeliveryOutcome::NoError.to_string(), "No error");
        assert_eq!(DeliveryOutcome::NetworkError.to_string(), "Network Error");
    }
}
