//! The Section-8 defenses in action: typo correction for address input
//! fields, and a budgeted defensive-registration plan for a provider —
//! checked against live DNS (the simulated authority served over UDP).
//!
//! ```sh
//! cargo run --example defense_toolkit
//! ```

use ets_core::alexa;
use ets_core::defense::{plan_registrations, TypoCorrector};
use ets_core::typing::TypingModel;
use ets_core::DomainName;
use ets_dns::record::RecordType;
use ets_dns::server::{query_udp, DnsServer};
use ets_dns::wire::{DnsMessage, Rcode};
use ets_dns::{Fqdn, Resolver};
use ets_ecosystem::population::{PopulationConfig, World};
use std::time::Duration;

fn main() {
    // --- typo correction (the input-field defense) -----------------------
    let corrector = TypoCorrector::new(alexa::synthetic_top(100), TypingModel::default());
    println!("typo correction for address fields:");
    for typed in [
        "alice@gmial.com",
        "bob@outlo0k.com",
        "carol@hotmial.com",
        "dan@gmail.com",
    ] {
        let suggestions = corrector.suggest_for_address(typed, 2);
        match suggestions.first() {
            Some(s) => println!(
                "  {typed:<22} did you mean @{}? (confidence {:.0}%, {} at position {})",
                s.target,
                s.confidence * 100.0,
                s.candidate.kind,
                s.candidate.position
            ),
            None => println!("  {typed:<22} looks fine"),
        }
    }

    // --- defensive registration planning ---------------------------------
    let world = World::build(PopulationConfig::tiny(88));
    let target: DomainName = "gmail.com".parse().expect("valid");
    let taken: Vec<DomainName> = world
        .ctypos
        .iter()
        .filter(|c| c.candidate.target == target)
        .map(|c| c.candidate.domain)
        .collect();
    println!(
        "\ndefensive plan for {target} (${} budget, {} names already taken by others):",
        170,
        taken.len()
    );
    let plan = plan_registrations(&target, 4e9, &TypingModel::default(), &taken, 170.0, 8.5);
    for p in plan.iter().take(10) {
        println!(
            "  register {:<18} expected {:>9.0} emails/yr  coverage {:>5.1}%  (${:.2} total)",
            p.candidate.domain.as_str(),
            p.expected_emails,
            p.cumulative_coverage * 100.0,
            p.cumulative_cost
        );
    }

    // --- verify against live (simulated) DNS ------------------------------
    // A defender would check which plan entries are genuinely unregistered:
    // NXDOMAIN from the authority means the name is available.
    let server = DnsServer::bind("127.0.0.1:0", Resolver::new(world.registry.clone()))
        .expect("bind loopback UDP");
    println!("\nchecking availability against DNS at {}:", server.addr());
    for p in plan.iter().take(5) {
        let name: Fqdn = p.candidate.domain.as_str().parse().expect("valid");
        let q = DnsMessage::query(1, name, RecordType::A);
        let resp = query_udp(server.addr(), &q, Duration::from_secs(2)).expect("query");
        let status = match resp.rcode {
            Rcode::NxDomain => "available",
            _ => "TAKEN",
        };
        println!("  {:<18} {status}", p.candidate.domain.as_str());
    }
    server.shutdown();
}
