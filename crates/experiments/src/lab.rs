//! Shared experiment context: the lazily-built world and the streamed
//! collection run with its funnel verdicts, so `repro all` builds each
//! expensive substrate once.

use ets_collector::funnel::{Funnel, FunnelVerdict};
use ets_collector::infra::{CollectedEmail, CollectionInfra};
use ets_collector::stream::stream_collect;
use ets_collector::traffic::{GenEmail, TrafficConfig, TrafficGenerator};
use ets_ecosystem::population::{PopulationConfig, World};
use ets_ecosystem::snapshot;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;

/// The lab bench: seeds, scale, output directory, cached substrates.
///
/// Stage timings and workload counts live in the `ets-obs` registry:
/// wall-clock stage durations go through [`ets_obs::metrics::time_stage`]
/// (which also opens a `stage.<name>` span for traces), and deterministic
/// workload counts are `lab.<name>` counters. The `--trace` JSONL log
/// exports both; `ets-bench` ratchets its `stage` lines.
pub struct Lab {
    /// Base RNG seed.
    pub seed: u64,
    /// Reduced-scale mode for quick runs.
    pub fast: bool,
    /// Output directory for JSON records.
    pub out_dir: String,
    /// Explicit world scale (`--scale`): number of popularity targets.
    /// Overrides the `--fast`/default world size when set.
    pub scale: Option<usize>,
    /// World snapshot path (`--snapshot`): load the world from here when
    /// valid, otherwise build fresh and save here.
    pub snapshot: Option<String>,
    world: OnceLock<World>,
    collection: OnceLock<Collection>,
    /// Set when a result record could not be written; `repro` then exits
    /// with failure once the experiment has run.
    write_failed: AtomicBool,
}

/// A completed collection run: infrastructure, generated mail, verdicts.
pub struct Collection {
    /// The 76-domain study infrastructure.
    pub infra: CollectionInfra,
    /// Envelope view of every generated email (what the funnel sees).
    pub collected: Vec<CollectedEmail>,
    /// Funnel verdicts, index-aligned with `collected`.
    pub verdicts: Vec<FunnelVerdict>,
    /// Spam generation scale.
    pub spam_scale: f64,
}

impl Lab {
    /// Creates a lab bench.
    pub fn new(seed: u64, fast: bool, out_dir: String) -> Lab {
        Lab {
            seed,
            fast,
            out_dir,
            scale: None,
            snapshot: None,
            world: OnceLock::new(),
            collection: OnceLock::new(),
            write_failed: AtomicBool::new(false),
        }
    }

    /// The world config this lab builds: `--scale` wins, then `--fast`,
    /// then the paper default.
    fn world_config(&self) -> PopulationConfig {
        match self.scale {
            Some(n) => PopulationConfig::at_scale(n, self.seed),
            None if self.fast => PopulationConfig {
                n_targets: 150,
                seed: self.seed,
                ..PopulationConfig::default()
            },
            None => PopulationConfig {
                seed: self.seed,
                ..PopulationConfig::default()
            },
        }
    }

    /// Records a deterministic workload count as a `lab.<name>` counter
    /// in the obs registry. The trace log pairs the counts with the stage
    /// timings so a timing regression can be told apart from a workload
    /// change.
    fn record_count(&self, name: &str, value: u64) {
        ets_obs::metrics::counter_add(&format!("lab.{name}"), value);
    }

    /// Runs a pipeline stage, recording its wall-clock time on the obs
    /// stage timeline (and a `stage.<name>` span when tracing is enabled).
    fn time_stage<T>(&self, name: &str, f: impl FnOnce() -> T) -> T {
        let (out, secs) = ets_obs::metrics::time_stage(name, f);
        eprintln!("[lab] stage {name}: {secs:.2}s");
        out
    }

    /// Records the peak in-flight payload bytes of the stage just run as
    /// a `mem.stage_peak_bytes.<name>` gauge. Peaks depend on scheduling,
    /// so they flow only into the trace log, never the deterministic
    /// snapshot.
    fn gauge_stage_peak(&self, name: &str) {
        ets_obs::metrics::gauge_set(
            &format!("mem.stage_peak_bytes.{name}"),
            ets_obs::mem::peak() as f64,
        );
    }

    /// The ecosystem world (§5/§6/§7 substrate), built once — or loaded
    /// near-zero-copy from `--snapshot` when the file matches this exact
    /// `(seed, scale, format_version)` config, in which case the run
    /// times a `snapshot_load` stage and no `world_build`. Any mismatch or
    /// corruption logs its reason and falls back to a fresh build (which
    /// then refreshes the snapshot).
    pub fn world(&self) -> &World {
        self.world.get_or_init(|| {
            let config = self.world_config();
            let world = match self.load_world_snapshot(&config) {
                Some(world) => world,
                None => {
                    eprintln!("[lab] building world ({} targets)...", config.n_targets);
                    ets_obs::mem::reset_peak();
                    let world = self.time_stage("world_build", || World::build(config));
                    self.gauge_stage_peak("world_build");
                    self.save_world_snapshot(&world);
                    world
                }
            };
            self.record_count("world_targets", world.targets.len() as u64);
            self.record_count("world_ctypos", world.ctypos.len() as u64);
            world
        })
    }

    /// Attempts the `--snapshot` load. `None` means "build fresh" — the
    /// reason has already been logged. A failed attempt records no
    /// `snapshot_load` stage, so the ratchet never sees a phantom load:
    /// that stage on the timeline is what marks a run as a reload.
    fn load_world_snapshot(&self, config: &PopulationConfig) -> Option<World> {
        let path = self.snapshot.as_deref()?;
        if !Path::new(path).exists() {
            eprintln!("[lab] no snapshot at {path} yet; building fresh");
            return None;
        }
        let (result, secs) = ets_obs::metrics::time_stage_result("snapshot_load", || {
            snapshot::load(Path::new(path), config)
        });
        match result {
            Ok(world) => {
                eprintln!(
                    "[lab] stage snapshot_load: {secs:.2}s ({} ctypos from {path})",
                    world.ctypos.len()
                );
                Some(world)
            }
            Err(e) => {
                eprintln!("[lab] snapshot {path} rejected ({e}); building fresh");
                None
            }
        }
    }

    /// Saves the freshly built world to `--snapshot`, creating its
    /// parent directories as `--trace` does (best-effort: a save failure
    /// costs the next run a rebuild, never this run's results).
    fn save_world_snapshot(&self, world: &World) {
        let Some(path) = self.snapshot.as_deref() else {
            return;
        };
        if let Some(dir) = Path::new(path).parent() {
            if let Err(e) = std::fs::create_dir_all(dir) {
                eprintln!("[lab] cannot write snapshot {path}: {e}");
                return;
            }
        }
        let (result, secs) = ets_obs::metrics::time_stage_result("snapshot_save", || {
            snapshot::save(world, Path::new(path))
        });
        match result {
            Ok(()) => eprintln!("[lab] stage snapshot_save: {secs:.2}s (wrote {path})"),
            Err(e) => eprintln!("[lab] cannot write snapshot {path}: {e}"),
        }
    }

    /// The collection run (§4 substrate), built once: the
    /// `stream_collect` stage streams the study period through the
    /// funnel's per-email layers, then `funnel_finish` runs its
    /// corpus-level layers.
    pub fn collection(&self) -> &Collection {
        self.collection.get_or_init(|| {
            let infra = CollectionInfra::build();
            let config = TrafficConfig {
                seed: self.seed,
                spam_scale: if self.fast {
                    1.0 / 20_000.0
                } else {
                    1.0 / 1_000.0
                },
                ..TrafficConfig::default()
            };
            let spam_scale = config.spam_scale;
            eprintln!(
                "[lab] generating {} months of traffic (spam scale 1/{:.0})...",
                7.5,
                1.0 / spam_scale,
            );
            // Generate, extract features, and hand off day by day under
            // back-pressure; only the finish layers see the whole corpus.
            let gen = TrafficGenerator::new(&infra, config);
            let funnel = Funnel::new(&infra);
            let mut collected: Vec<CollectedEmail> = Vec::new();
            ets_obs::mem::reset_peak();
            let state = self.time_stage("stream_collect", || {
                let mut sink = |e: GenEmail| collected.push(e.collected);
                stream_collect(&gen, &funnel, &mut sink)
            });
            self.gauge_stage_peak("stream_collect");
            eprintln!(
                "[lab] finishing the funnel over {} emails...",
                collected.len()
            );
            let verdicts = self.time_stage("funnel_finish", || state.finish());
            self.record_count("traffic_emails", collected.len() as u64);
            self.record_count(
                "funnel_true_typos",
                verdicts.iter().filter(|v| v.is_true_typo()).count() as u64,
            );
            Collection {
                infra,
                collected,
                verdicts,
                spam_scale,
            }
        })
    }

    /// Writes one experiment's JSON record, creating the output
    /// directory first if it is missing, so a run that writes no record
    /// (`repro snapshot`) leaves none behind. A record that cannot be
    /// written, or whose directory cannot be created, is logged and
    /// remembered (see [`Lab::write_failed`]); the run goes on to write
    /// the others.
    pub fn write_json(&self, name: &str, value: &serde_json::Value) {
        let path = format!("{}/{name}.json", self.out_dir);
        let json = serde_json::to_string_pretty(value).expect("serializable");
        match std::fs::create_dir_all(&self.out_dir).and_then(|()| std::fs::write(&path, json)) {
            Ok(()) => eprintln!("[lab] wrote {path}"),
            Err(e) => {
                eprintln!("[lab] cannot write {path}: {e}");
                self.write_failed.store(true, Ordering::Relaxed);
            }
        }
    }

    /// Whether a result record could not be written this run.
    pub fn write_failed(&self) -> bool {
        self.write_failed.load(Ordering::Relaxed)
    }
}
