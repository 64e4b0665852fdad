//! `ets-scan` benchmarks: the compiled case-folding automaton against
//! the repeated `to_ascii_lowercase` + `str::contains` scan it replaces,
//! plus the two collector layers that moved onto it (spam scoring and
//! sensitive-info scrubbing).

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use ets_collector::corpus::{self, SpamDataset};
use ets_collector::scrub;
use ets_collector::spamscore::SpamScorer;
use ets_scan::PatternSet;

/// A keyword list shaped like the spam-token table: mixed lengths, some
/// shared prefixes, all pre-lowercased.
const KEYWORDS: [&str; 12] = [
    "viagra",
    "free money",
    "click here",
    "act now",
    "winner",
    "lottery",
    "prince",
    "wire transfer",
    "unsubscribe",
    "limited time",
    "urgent",
    "password",
];

fn bodies(n: usize) -> Vec<String> {
    let mut emails = corpus::spam_dataset(SpamDataset::Trec, n / 2, 0xBEEF);
    emails.extend(corpus::enron_like(n - n / 2, 0.1, 0xFEED));
    emails.into_iter().map(|e| e.message.body).collect()
}

fn bench_find_all_vs_contains(c: &mut Criterion) {
    let texts = bodies(400);
    let tagged: Vec<(&str, usize)> = KEYWORDS.iter().copied().zip(0..).collect();
    let set = PatternSet::compile(&tagged);
    c.bench_function("scan_find_all/12-patterns", |b| {
        b.iter(|| {
            let mut hits = 0usize;
            for t in &texts {
                hits += set.find_all(black_box(t)).count();
            }
            black_box(hits)
        })
    });
    c.bench_function("scan_contains_loop/12-patterns", |b| {
        b.iter(|| {
            let mut hits = 0usize;
            for t in &texts {
                let lower = t.to_ascii_lowercase();
                for kw in KEYWORDS {
                    hits += lower.matches(kw).count();
                }
            }
            black_box(hits)
        })
    });
}

fn bench_spamscore(c: &mut Criterion) {
    let emails: Vec<ets_mail::Message> = {
        let mut emails = corpus::spam_dataset(SpamDataset::Trec, 200, 0xBEEF);
        emails.extend(corpus::enron_like(200, 0.1, 0xFEED));
        emails.into_iter().map(|e| e.message).collect()
    };
    let scorer = SpamScorer::new();
    c.bench_function("spamscore_scan/400-emails", |b| {
        b.iter(|| {
            let mut total = 0.0f64;
            for m in &emails {
                total += scorer.score(black_box(m)).score;
            }
            black_box(total)
        })
    });
}

fn bench_scrub(c: &mut Criterion) {
    let texts = bodies(300);
    c.bench_function("scrub_scan/300-bodies", |b| {
        b.iter(|| {
            let mut findings = 0usize;
            for t in &texts {
                findings += scrub::scrub(black_box(t)).findings.len();
            }
            black_box(findings)
        })
    });
}

criterion_group!(
    benches,
    bench_find_all_vs_contains,
    bench_spamscore,
    bench_scrub
);
criterion_main!(benches);
