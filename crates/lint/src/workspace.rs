//! Workspace discovery and the whole-tree lint driver.
//!
//! `--workspace` walks every member crate's `src/` tree (plus the root
//! package) with no cargo involvement: crate names are read straight
//! from each `Cargo.toml`, and per-file [`FileMeta`] facts are derived
//! from the crate layout. File order is sorted, so output is
//! deterministic — the analyzer holds itself to the invariant it
//! enforces.

use crate::{lint_ctx, Diagnostic, FileCtx, FileMeta, Tier};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// Crates whose outputs feed result files — the `unordered-iteration`
/// scope. (`ets-mail`/`ets-smtp` are wire-format codecs and
/// `ets-parallel` is the execution substrate; their iteration order
/// never reaches a result file directly.)
pub const ANALYTICAL_CRATES: &[&str] = &[
    "ets-core",
    "ets-collector",
    "ets-ecosystem",
    "ets-experiments",
    "ets-honeypot",
    "ets-dns",
    "ets-obs",
    "ets-scan",
    // Snapshot bytes are compared (and checksummed) verbatim, so the
    // container writer's iteration order is result-affecting too.
    "ets-store",
];

/// Workspace-relative paths allowed to read the wall clock. Path-exact on
/// purpose: `crates/obs/src/clock.rs` is the *only* wall-clock source
/// for everything else (the experiment driver, the serving plane's
/// session observers and the load harness included) — so a `clock.rs`
/// in any other crate, or `Instant::now` anywhere else, is still denied.
pub const TIMING_ALLOWLIST_PATHS: &[&str] = &["crates/obs/src/clock.rs"];

/// Walks up from `start` to the directory whose `Cargo.toml` declares
/// `[workspace]`.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(d);
            }
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    None
}

/// A discovered workspace member.
#[derive(Debug)]
pub struct Crate {
    pub name: String,
    /// Crate directory, absolute.
    pub dir: PathBuf,
    /// Has a `src/lib.rs` (library target).
    pub has_lib: bool,
}

/// Reads `name = "..."` out of a crate manifest.
fn package_name(manifest: &Path) -> Option<String> {
    let text = std::fs::read_to_string(manifest).ok()?;
    let mut in_package = false;
    for line in text.lines() {
        let line = line.trim();
        if line.starts_with('[') {
            in_package = line == "[package]";
            continue;
        }
        if in_package {
            if let Some(rest) = line.strip_prefix("name") {
                let rest = rest.trim_start().strip_prefix('=')?.trim();
                return Some(rest.trim_matches('"').to_string());
            }
        }
    }
    None
}

/// Enumerates the root package plus every `crates/*` member, sorted by
/// name.
pub fn discover_crates(root: &Path) -> std::io::Result<Vec<Crate>> {
    let mut out = Vec::new();
    if root.join("src").is_dir() {
        if let Some(name) = package_name(&root.join("Cargo.toml")) {
            out.push(Crate {
                name,
                dir: root.to_path_buf(),
                has_lib: root.join("src/lib.rs").is_file(),
            });
        }
    }
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        for entry in std::fs::read_dir(&crates_dir)? {
            let dir = entry?.path();
            let manifest = dir.join("Cargo.toml");
            if !manifest.is_file() {
                continue;
            }
            if let Some(name) = package_name(&manifest) {
                out.push(Crate {
                    name,
                    has_lib: dir.join("src/lib.rs").is_file(),
                    dir,
                });
            }
        }
    }
    out.sort_by(|a, b| a.name.cmp(&b.name));
    Ok(out)
}

/// Collects every `.rs` file under `dir`, recursively, sorted. Public
/// so the self-parse test can walk exactly the files the driver lints.
pub fn rust_files(dir: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        for entry in std::fs::read_dir(&d)? {
            let p = entry?.path();
            if p.is_dir() {
                stack.push(p);
            } else if p.extension().is_some_and(|e| e == "rs") {
                out.push(p);
            }
        }
    }
    out.sort();
    Ok(out)
}

/// Builds the [`FileMeta`] for one source file of `krate`.
pub fn file_meta(root: &Path, krate: &Crate, path: &Path) -> FileMeta {
    let file_name = path
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_default();
    let display_path = path
        .strip_prefix(root)
        .unwrap_or(path)
        .to_string_lossy()
        .into_owned();
    let rel_to_src = path
        .strip_prefix(krate.dir.join("src"))
        .map(|p| p.to_string_lossy().into_owned())
        .unwrap_or_default();
    let is_crate_root = rel_to_src == "lib.rs" || rel_to_src == "main.rs";
    FileMeta {
        analytical: ANALYTICAL_CRATES.contains(&krate.name.as_str()),
        // Binary entry points may panic on bad usage; library code may not.
        library: krate.has_lib && rel_to_src != "main.rs",
        timing_allowed: TIMING_ALLOWLIST_PATHS.contains(&display_path.as_str()),
        crate_name: krate.name.clone(),
        display_path,
        file_name,
        is_crate_root,
    }
}

/// Result of a whole-workspace lint pass.
pub struct WorkspaceReport {
    pub diagnostics: Vec<Diagnostic>,
    /// Warn-tier (`panic-in-library`) counts per crate, for the budget.
    pub warn_counts: BTreeMap<String, usize>,
    /// `ets-lint: allow(...)` pragma counts per crate, for the pragma
    /// budget ratchet. Doc-comment mentions are excluded at parse time.
    pub pragma_counts: BTreeMap<String, usize>,
}

impl WorkspaceReport {
    pub fn deny_count(&self) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.tier == Tier::Deny)
            .count()
    }
}

/// Lints every member crate's `src/` tree under `root`.
pub fn lint_workspace(root: &Path) -> std::io::Result<WorkspaceReport> {
    let mut diagnostics = Vec::new();
    let mut warn_counts: BTreeMap<String, usize> = BTreeMap::new();
    let mut pragma_counts: BTreeMap<String, usize> = BTreeMap::new();
    for krate in discover_crates(root)? {
        let src_dir = krate.dir.join("src");
        if !src_dir.is_dir() {
            continue;
        }
        for path in rust_files(&src_dir)? {
            let meta = file_meta(root, &krate, &path);
            let src = std::fs::read_to_string(&path)?;
            let ctx = FileCtx::new(&meta, &src);
            if ctx.pragma_count > 0 {
                *pragma_counts.entry(krate.name.clone()).or_default() += ctx.pragma_count;
            }
            for d in lint_ctx(&ctx) {
                if d.tier == Tier::Warn {
                    *warn_counts.entry(krate.name.clone()).or_default() += 1;
                }
                diagnostics.push(d);
            }
        }
    }
    diagnostics.sort_by(|a, b| {
        (a.file.as_str(), a.line, a.col, a.rule).cmp(&(b.file.as_str(), b.line, b.col, b.rule))
    });
    Ok(WorkspaceReport {
        diagnostics,
        warn_counts,
        pragma_counts,
    })
}
