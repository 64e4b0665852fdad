//! Section-6 experiments: the projection regression and Figure 9.

use crate::lab::Lab;
use crate::report::{print_table, thousands};
use ets_collector::funnel::FunnelVerdict;
use ets_core::regress::{cost_per_email, MistakeTypePopularity, Observation, ProjectionModel};
use ets_core::typing::TypingModel;
use ets_core::typogen::{MistakeKind, TypoCandidate};
use ets_core::DomainName;
use serde_json::json;
use std::collections::HashMap;

/// The five seed targets of §6.1 with their email-category ranks.
const SEED_TARGETS: [(&str, usize); 5] = [
    ("gmail.com", 1),
    ("hotmail.com", 2),
    ("outlook.com", 3),
    ("comcast.com", 6),
    ("verizon.com", 7),
];

/// The ecosystem-side aliases of the seed targets (the synthetic world
/// registers the ISPs under their real `.net` mail domains).
const SEED_ALIASES: [(&str, &str, usize); 5] = [
    ("gmail.com", "gmail.com", 1),
    ("hotmail.com", "hotmail.com", 2),
    ("outlook.com", "outlook.com", 3),
    ("comcast.com", "comcast.net", 6),
    ("verizon.com", "verizon.net", 7),
];

/// Synthetic relative-popularity sample for one ctypo: the typing model's
/// expectation, relative to its target, with deterministic log-normal
/// noise (Alexa rank estimates are noisy) and occasional benign-collision
/// outliers.
fn popularity_sample(cand: &TypoCandidate, model: &TypingModel, outlier: bool) -> f64 {
    // Compress the typing model's spread: web traffic to a typo domain is
    // less kind-sensitive than direct email volume (people also arrive at
    // typo sites via links and history), so Figure 9's gaps are smaller
    // than the raw model's.
    let base = model.expected_emails(1e9, cand).powf(0.65);
    let h = fnv(cand.domain.as_str());
    let z = ((h >> 11) as f64 / (1u64 << 53) as f64 - 0.5) * 2.0; // [-1, 1]
    let noise = (z * 0.8).exp();
    let outlier_boost = if outlier { 500.0 } else { 1.0 };
    base * noise * outlier_boost
}

/// Figure 9: relative popularity of ctypos per mistake type, with 95% CI.
pub fn fig9(lab: &Lab) {
    let pop = mistake_popularity(lab);
    let mut rows = Vec::new();
    for (i, kind) in MistakeKind::ALL.iter().enumerate() {
        rows.push(vec![
            kind.to_string(),
            format!("{:.3}", pop.means[i]),
            format!("±{:.3}", pop.half_widths[i]),
        ]);
    }
    print_table(&["Mistake type", "Mean rel. popularity", "95% CI"], &rows);
    println!(
        "deletion/transposition vs addition/substitution ratio: {:.2} (paper: significantly above 1)",
        (pop.mean_of(MistakeKind::Deletion) + pop.mean_of(MistakeKind::Transposition))
            / (pop.mean_of(MistakeKind::Addition) + pop.mean_of(MistakeKind::Substitution)).max(1e-12)
    );
    lab.write_json(
        "fig9",
        &json!({
            "kinds": MistakeKind::ALL.iter().map(|k| k.to_string()).collect::<Vec<_>>(),
            "means": pop.means,
            "ci_half_widths": pop.half_widths,
        }),
    );
}

fn mistake_popularity(lab: &Lab) -> MistakeTypePopularity {
    let world = lab.world();
    let model = TypingModel::default();
    // ctypos of the top-40 targets, as in §6.1.
    let top40: Vec<&DomainName> = world.targets.iter().take(40).collect();
    let mut samples = Vec::new();
    for c in &world.ctypos {
        if !top40.contains(&&c.candidate.target) {
            continue;
        }
        let outlier = c.class == ets_core::taxonomy::DomainClass::BenignCollision
            && fnv(c.candidate.domain.as_str()).is_multiple_of(7);
        samples.push((
            c.candidate.kind,
            popularity_sample(&c.candidate, &model, outlier),
        ));
    }
    // Normalize to "relative popularity": mean 1 across all ctypos, the
    // way Figure 9 plots Alexa traffic relative to sibling typos.
    let mean: f64 = samples.iter().map(|(_, v)| v).sum::<f64>() / samples.len().max(1) as f64;
    for (_, v) in &mut samples {
        *v /= mean.max(1e-300);
    }
    MistakeTypePopularity::estimate(&samples).expect("every mistake kind sampled")
}

/// §6.2: fit the projection regression on the study's own domains, apply
/// it to the ecosystem ctypos of the five seed targets, and report the
/// corrected projection and cost per email.
pub fn regression(lab: &Lab) {
    let c = lab.collection();
    let world = lab.world();
    let mut reg_span = ets_obs::span!("regression.fit");

    // --- training set: our domains targeting the 5 seeds ---------------
    let mut yearly: HashMap<&DomainName, f64> = HashMap::new();
    for (e, v) in c.collected.iter().zip(&c.verdicts) {
        if matches!(v, FunnelVerdict::ReceiverTypo | FunnelVerdict::Reflection) {
            let days = c.infra.collection_days[&e.domain] as f64;
            *yearly.entry(&e.domain).or_insert(0.0) += 365.0 / days;
        }
    }
    let mut observations = Vec::new();
    let mut seed_kinds: Vec<MistakeKind> = Vec::new();
    for d in &c.infra.domains {
        let Some(&(_, rank)) = SEED_TARGETS
            .iter()
            .find(|(t, _)| *t == d.candidate.target.as_str())
        else {
            continue;
        };
        if !matches!(d.purpose, ets_core::taxonomy::CollectionPurpose::Provider) {
            continue;
        }
        let y = yearly.get(d.domain()).copied().unwrap_or(0.0);
        observations.push(Observation {
            candidate: d.candidate.clone(),
            target_rank: rank,
            yearly_emails: y,
        });
        if !seed_kinds.contains(&d.candidate.kind) {
            seed_kinds.push(d.candidate.kind);
        }
    }
    println!(
        "training on {} study domains targeting the 5 seed providers (paper: 25)",
        observations.len()
    );
    reg_span.arg("observations", observations.len() as u64);
    ets_obs::metrics::counter_add("regression.observations", observations.len() as u64);
    let model = ProjectionModel::fit(&observations).expect("regression fits");
    println!(
        "R² = {:.2} (paper: 0.74); leave-one-out R² = {:.2} (paper: 0.63)",
        model.r_squared, model.loocv_r_squared
    );

    // --- ctypo population of the seed targets ---------------------------
    let mut population: Vec<(TypoCandidate, usize)> = Vec::new();
    for ct in &world.ctypos {
        if ct.class == ets_core::taxonomy::DomainClass::Defensive {
            continue; // the paper excludes defensive registrations
        }
        let Some(&(_, _, rank)) = SEED_ALIASES
            .iter()
            .find(|(_, alias, _)| *alias == ct.candidate.target.as_str())
        else {
            continue;
        };
        population.push((ct.candidate, rank));
    }
    println!(
        "ctypos of the five seed targets in the wild: {} (paper: 1,211)",
        population.len()
    );
    ets_obs::metrics::counter_add("regression.population", population.len() as u64);

    // --- projection ------------------------------------------------------
    let projection = model.project_total(&population, 0.95);
    println!(
        "projected emails/yr: {} (95% CI {} – {}) [paper: 260,514 (22,577 – 905,174)]",
        thousands(projection.expected),
        thousands(projection.interval.lo),
        thousands(projection.interval.hi)
    );

    // --- Figure-9 mistake-type correction --------------------------------
    let pop = mistake_popularity(lab);
    let factor = pop.correction_factor(&seed_kinds);
    let corrected = projection.expected * factor;
    println!(
        "mistake-type correction ×{factor:.2} → {} emails/yr (95% CI {} – {}) [paper: 846,219 (58,460 – 4,039,500)]",
        thousands(corrected),
        thousands(projection.interval.lo * factor),
        thousands(projection.interval.hi * factor)
    );

    // --- economics --------------------------------------------------------
    let cost = cost_per_email(population.len(), corrected, 8.5);
    println!(
        "cost per captured email at $8.50/domain/yr: {:.1}¢ (paper: <2¢)",
        cost * 100.0
    );

    lab.write_json(
        "regression",
        &json!({
            "training_domains": observations.len(),
            "r_squared": model.r_squared,
            "loocv_r_squared": model.loocv_r_squared,
            "population": population.len(),
            "projected": projection.expected,
            "ci": [projection.interval.lo, projection.interval.hi],
            "correction_factor": factor,
            "corrected": corrected,
            "cost_per_email_usd": cost,
            "paper": {
                "r_squared": 0.74, "loocv": 0.63, "population": 1211,
                "projected": 260_514.0, "ci": [22_577.0, 905_174.0],
                "corrected": 846_219.0, "corrected_ci": [58_460.0, 4_039_500.0],
            },
        }),
    );
}

fn fnv(s: &str) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for b in s.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}
