//! `ets-lint` CLI.
//!
//! ```text
//! ets-lint [--workspace] [--deny] [--format human|json|sarif]
//!          [--budget PATH] [--pragma-budget PATH] [--update-budget]
//!
//!   --workspace          lint every member crate's src/ tree (the only
//!                        mode, so the flag is optional)
//!   --deny               exit 1 on deny-tier findings or a busted budget
//!   --format json        machine-readable findings + summary
//!   --format sarif       SARIF 2.1.0 log (GitHub code-scanning upload)
//!   --budget PATH        panic budget file (default crates/lint/panic_budget.json)
//!   --pragma-budget PATH pragma budget file (default crates/lint/pragma_budget.json)
//!   --update-budget      rewrite both budget files to match the tree
//! ```

#![forbid(unsafe_code)]

use ets_lint::workspace::{find_workspace_root, lint_workspace};
use ets_lint::{budget, sarif, to_json};
use std::path::PathBuf;
use std::process::ExitCode;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Format {
    Human,
    Json,
    Sarif,
}

struct Args {
    deny: bool,
    format: Format,
    budget_path: Option<PathBuf>,
    pragma_budget_path: Option<PathBuf>,
    update_budget: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        deny: false,
        format: Format::Human,
        budget_path: None,
        pragma_budget_path: None,
        update_budget: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--workspace" => {}
            "--deny" => args.deny = true,
            "--format" => match it.next().as_deref() {
                Some("json") => args.format = Format::Json,
                Some("human") => args.format = Format::Human,
                Some("sarif") => args.format = Format::Sarif,
                other => return Err(format!("--format expects human|json|sarif, got {other:?}")),
            },
            "--budget" => {
                args.budget_path = Some(PathBuf::from(it.next().ok_or("--budget expects a path")?));
            }
            "--pragma-budget" => {
                args.pragma_budget_path = Some(PathBuf::from(
                    it.next().ok_or("--pragma-budget expects a path")?,
                ));
            }
            "--update-budget" => args.update_budget = true,
            "--help" | "-h" => {
                return Err(
                    "usage: ets-lint [--workspace] [--deny] [--format human|json|sarif] \
                            [--budget PATH] [--pragma-budget PATH] [--update-budget]"
                        .to_string(),
                );
            }
            other => return Err(format!("unknown argument {other:?} (see --help)")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };

    let cwd = std::env::current_dir().expect("cwd");
    let Some(root) = find_workspace_root(&cwd) else {
        eprintln!(
            "ets-lint: no [workspace] Cargo.toml above {}",
            cwd.display()
        );
        return ExitCode::from(2);
    };

    let report = match lint_workspace(&root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("ets-lint: {e}");
            return ExitCode::from(2);
        }
    };

    // Budget bookkeeping: panic sites and suppression pragmas, both
    // ratcheted per crate.
    let budget_path = args
        .budget_path
        .unwrap_or_else(|| root.join("crates/lint/panic_budget.json"));
    let pragma_budget_path = args
        .pragma_budget_path
        .unwrap_or_else(|| root.join("crates/lint/pragma_budget.json"));
    if args.update_budget {
        for (path, counts) in [
            (&budget_path, &report.warn_counts),
            (&pragma_budget_path, &report.pragma_counts),
        ] {
            if let Err(e) = std::fs::write(path, budget::render(counts)) {
                eprintln!("ets-lint: writing {}: {e}", path.display());
                return ExitCode::from(2);
            }
            eprintln!("ets-lint: wrote {}", path.display());
        }
    }
    let read_budget = |path: &PathBuf| match std::fs::read_to_string(path) {
        Ok(text) => budget::parse(&text).map_err(|e| format!("{}: {e}", path.display())),
        Err(_) => Ok(Default::default()),
    };
    let (budget_map, pragma_map) =
        match (read_budget(&budget_path), read_budget(&pragma_budget_path)) {
            (Ok(b), Ok(p)) => (b, p),
            (Err(e), _) | (_, Err(e)) => {
                eprintln!("ets-lint: {e}");
                return ExitCode::from(2);
            }
        };
    let (mut over, mut under) = budget::check(
        &budget_map,
        &report.warn_counts,
        "panic-in-library sites",
        "panic_budget.json",
    );
    let (p_over, p_under) = budget::check(
        &pragma_map,
        &report.pragma_counts,
        "ets-lint allow pragmas",
        "pragma_budget.json",
    );
    over.extend(p_over);
    under.extend(p_under);

    match args.format {
        Format::Json => print!("{}", to_json(&report.diagnostics)),
        Format::Sarif => print!("{}", sarif::to_sarif(&report.diagnostics)),
        Format::Human => {
            for d in &report.diagnostics {
                println!("{d}");
            }
            let deny = report.deny_count();
            let warn = report.diagnostics.len() - deny;
            println!("ets-lint: {deny} deny, {warn} warn finding(s)");
            for msg in &over {
                println!("ets-lint: BUDGET {msg}");
            }
            for msg in &under {
                println!("ets-lint: note: {msg}");
            }
        }
    }

    if args.deny && (report.deny_count() > 0 || !over.is_empty()) {
        return ExitCode::from(1);
    }
    ExitCode::SUCCESS
}
