//! Cross-crate Section-6 pipeline: train the projection regression on the
//! simulated collection, apply it to the ecosystem's ctypos, and check
//! the paper's qualitative conclusions.

use ets_collector::funnel::{Funnel, FunnelVerdict};
use ets_collector::infra::CollectionInfra;
use ets_collector::traffic::{TrafficConfig, TrafficGenerator};
use ets_core::regress::{cost_per_email, Observation, ProjectionModel};
use ets_core::typogen::TypoCandidate;
use ets_ecosystem::population::{PopulationConfig, World};
use std::collections::HashMap;

const SEEDS: [(&str, usize); 5] = [
    ("gmail.com", 1),
    ("hotmail.com", 2),
    ("outlook.com", 3),
    ("comcast.com", 6),
    ("verizon.com", 7),
];

fn observations(seed: u64) -> Vec<Observation> {
    let infra = CollectionInfra::build();
    let config = TrafficConfig {
        seed,
        spam_scale: 1.0 / 50_000.0,
        ..TrafficConfig::default()
    };
    let emails: Vec<_> = TrafficGenerator::new(&infra, config)
        .generate()
        .into_iter()
        .map(|e| e.collected)
        .collect();
    let verdicts = Funnel::new(&infra).classify_all(&emails);
    let mut yearly: HashMap<ets_core::DomainName, f64> = HashMap::new();
    for (e, v) in emails.iter().zip(&verdicts) {
        if matches!(v, FunnelVerdict::ReceiverTypo | FunnelVerdict::Reflection) {
            let days = infra.collection_days[&e.domain] as f64;
            *yearly.entry(e.domain.clone()).or_insert(0.0) += 365.0 / days;
        }
    }
    infra
        .domains
        .iter()
        .filter(|d| {
            matches!(d.purpose, ets_core::taxonomy::CollectionPurpose::Provider)
                && SEEDS.iter().any(|(t, _)| *t == d.candidate.target.as_str())
        })
        .map(|d| Observation {
            candidate: d.candidate.clone(),
            target_rank: SEEDS
                .iter()
                .find(|(t, _)| *t == d.candidate.target.as_str())
                .unwrap()
                .1,
            yearly_emails: yearly.get(d.domain()).copied().unwrap_or(0.0),
        })
        .collect()
}

#[test]
fn regression_fits_with_meaningful_r2() {
    let obs = observations(0x6e6);
    assert_eq!(
        obs.len(),
        25,
        "provider typos of the 5 seed targets: {}",
        obs.len()
    );
    let model = ProjectionModel::fit(&obs).expect("fits");
    assert!(
        model.r_squared > 0.4,
        "R² {} too weak to be the paper's model",
        model.r_squared
    );
    assert!(model.loocv_r_squared <= model.r_squared);
}

#[test]
fn projection_over_ecosystem_is_paper_magnitude() {
    let obs = observations(0x6e7);
    let model = ProjectionModel::fit(&obs).expect("fits");
    let world = World::build(PopulationConfig {
        n_targets: 100,
        ..PopulationConfig::tiny(0x717)
    });
    let aliases = [
        "gmail.com",
        "hotmail.com",
        "outlook.com",
        "comcast.net",
        "verizon.net",
    ];
    let population: Vec<(TypoCandidate, usize)> = world
        .ctypos
        .iter()
        .filter(|c| c.class != ets_core::taxonomy::DomainClass::Defensive)
        .filter(|c| aliases.contains(&c.candidate.target.as_str()))
        .map(|c| {
            let rank = match c.candidate.target.as_str() {
                "gmail.com" => 1,
                "hotmail.com" => 2,
                "outlook.com" => 3,
                "comcast.net" => 6,
                _ => 7,
            };
            (c.candidate, rank)
        })
        .collect();
    assert!(population.len() > 200, "population {}", population.len());
    let projection = model.project_total(&population, 0.95);
    // Paper: hundreds of thousands per year for 1,211 domains → tens of
    // thousands per year at our population scale; the point is orders of
    // magnitude above the study's own 76 domains and far below raw spam.
    assert!(
        projection.expected > 5_000.0 && projection.expected < 5_000_000.0,
        "projection {}",
        projection.expected
    );
    assert!(projection.interval.lo < projection.expected);
    assert!(projection.interval.hi > projection.expected);
    // Economics: cents per email, not dollars (§6.2).
    let cost = cost_per_email(population.len(), projection.expected, 8.5);
    assert!(cost < 0.5, "cost {cost} per email");
}

#[test]
fn popular_targets_dominate_projection() {
    let obs = observations(0x6e8);
    let model = ProjectionModel::fit(&obs).expect("fits");
    // Same candidate, different claimed rank: rank 1 must predict more.
    let cand = obs
        .iter()
        .find(|o| o.candidate.target.as_str() == "outlook.com")
        .map(|o| o.candidate.clone())
        .expect("outlook typo in training set");
    assert!(model.predict(&cand, 1) >= model.predict(&cand, 1_000));
}
