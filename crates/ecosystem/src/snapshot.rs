//! Persistent world snapshots over the `ets-store` container.
//!
//! The world is almost entirely *derivable*: targets, registrants,
//! filler and background registrations, and the NS customer bases are
//! pure functions of [`PopulationConfig`]'s RNG streams. The only
//! non-derivable state is which gtypos won their registration rolls and
//! what each registration drew — so that is all a snapshot stores: one
//! compact struct-of-arrays record per ctypo (SLD arena, target rank,
//! mistake metadata, bit-exact visual distance, and the full
//! [`CtypoDraw`](crate::population) column set). On load the
//! derivable phases are recomputed from the same streams and the records
//! are decoded straight back into the world's ctypo columns, from which
//! every registration and zone is derived on lookup exactly as in a
//! fresh build. That makes the loaded world **byte-identical** to the
//! one that wrote the snapshot — every `results/*.json` matches, at any
//! thread count.
//!
//! Invalidation is strict: the store layer rejects structural damage
//! (bad magic, truncation, checksum mismatches), and this layer rejects
//! any `(format_version, config)` mismatch — the config comparison
//! covers seed and scale, since both are config fields. Every rejection
//! is a typed [`LoadError`] the caller logs before falling back to a
//! fresh build; nothing in this path panics.

use crate::population::{
    CtypoDraw, CtypoMeta, CtypoRecord, CtypoRow, PopulationConfig, SmtpProfile, World,
};
use ets_core::taxonomy::DomainClass;
use ets_core::MistakeKind;
use ets_store::{SectionBuf, Snapshot, SnapshotWriter, StoreError};
use std::fmt;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

/// Version of the *world section schema*. Bump whenever the per-ctypo
/// columns or their meaning change; old snapshots then fail with
/// [`LoadError::FormatVersion`] and the caller rebuilds.
pub const WORLD_FORMAT_VERSION: u32 = 1;

/// Why a snapshot was rejected. Every variant is recoverable: log it and
/// build fresh.
#[derive(Debug)]
pub enum LoadError {
    /// The container itself is unreadable or damaged.
    Store(StoreError),
    /// The snapshot was written by a different world schema version.
    FormatVersion {
        /// Version found in the file.
        found: u32,
        /// Version this build writes and reads.
        expected: u32,
    },
    /// The snapshot was built from a different configuration (seed,
    /// scale, or any other knob).
    ConfigMismatch,
    /// Structurally valid container, but the world data inside is
    /// inconsistent (out-of-range index, unsorted records, …).
    Corrupt(String),
}

impl fmt::Display for LoadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LoadError::Store(e) => write!(f, "{e}"),
            LoadError::FormatVersion { found, expected } => {
                write!(f, "snapshot format v{found}, this build reads v{expected}")
            }
            LoadError::ConfigMismatch => write!(f, "snapshot built from a different config"),
            LoadError::Corrupt(what) => write!(f, "inconsistent snapshot: {what}"),
        }
    }
}

impl std::error::Error for LoadError {}

impl From<StoreError> for LoadError {
    fn from(e: StoreError) -> LoadError {
        LoadError::Store(e)
    }
}

/// The canonical byte string identifying a world configuration — the
/// config serialized as JSON (derived `Serialize` keeps field order
/// stable). Stored as the container meta blob and compared verbatim.
fn config_fingerprint(config: &PopulationConfig) -> String {
    serde_json::to_string(config).unwrap_or_default()
}

fn encode_kind(k: MistakeKind) -> u8 {
    match k {
        MistakeKind::Addition => 0,
        MistakeKind::Deletion => 1,
        MistakeKind::Substitution => 2,
        MistakeKind::Transposition => 3,
    }
}

fn decode_kind(v: u8) -> Result<MistakeKind, LoadError> {
    match v {
        0 => Ok(MistakeKind::Addition),
        1 => Ok(MistakeKind::Deletion),
        2 => Ok(MistakeKind::Substitution),
        3 => Ok(MistakeKind::Transposition),
        other => Err(LoadError::Corrupt(format!("mistake kind {other}"))),
    }
}

fn encode_class(c: DomainClass) -> u8 {
    match c {
        DomainClass::Typosquatting => 0,
        DomainClass::Defensive => 1,
        DomainClass::BenignCollision => 2,
        DomainClass::Unregistered => 3,
    }
}

fn decode_class(v: u8) -> Result<DomainClass, LoadError> {
    match v {
        0 => Ok(DomainClass::Typosquatting),
        1 => Ok(DomainClass::Defensive),
        2 => Ok(DomainClass::BenignCollision),
        other => Err(LoadError::Corrupt(format!("domain class {other}"))),
    }
}

fn encode_smtp(s: SmtpProfile) -> u8 {
    match s {
        SmtpProfile::NoListener => 0,
        SmtpProfile::PlainOnly => 1,
        SmtpProfile::StarttlsBroken => 2,
        SmtpProfile::StarttlsOk => 3,
        SmtpProfile::SilentTimeout => 4,
        SmtpProfile::ConnectionReset => 5,
        SmtpProfile::BounceAll => 6,
    }
}

fn decode_smtp(v: u8) -> Result<SmtpProfile, LoadError> {
    match v {
        0 => Ok(SmtpProfile::NoListener),
        1 => Ok(SmtpProfile::PlainOnly),
        2 => Ok(SmtpProfile::StarttlsBroken),
        3 => Ok(SmtpProfile::StarttlsOk),
        4 => Ok(SmtpProfile::SilentTimeout),
        5 => Ok(SmtpProfile::ConnectionReset),
        6 => Ok(SmtpProfile::BounceAll),
        other => Err(LoadError::Corrupt(format!("smtp profile {other}"))),
    }
}

const FLAG_FAT_FINGER: u8 = 1;
const FLAG_PRIVATE: u8 = 2;
const FLAG_HAS_ZONE: u8 = 4;
const FLAG_PARKED: u8 = 8;
/// `mx` column sentinel for "no mail provider".
const MX_NONE: u16 = u16::MAX;

/// Writes `world` to `path` as a versioned, checksummed snapshot.
/// Atomic: a crashed save never leaves a half-written file.
pub fn save(world: &World, path: &Path) -> Result<(), StoreError> {
    let meta = config_fingerprint(&world.config);
    let mut writer = SnapshotWriter::new(WORLD_FORMAT_VERSION, meta.as_bytes());
    let (names, rows) = (world.ctypos.names(), world.ctypos.rows());
    let n = rows.len();

    let mut arena = SectionBuf::with_capacity(n * 12);
    let mut ends = SectionBuf::with_capacity(n * 4 + 8);
    let mut slds = String::new();
    let mut end_offsets: Vec<u32> = Vec::with_capacity(n);
    for id in names.ids() {
        slds.push_str(names.sld(id));
        end_offsets.push(slds.len() as u32);
    }
    arena.put_str(&slds);
    ends.put_u32s(&end_offsets);
    writer.add_section("ctypo.sld_arena", arena);
    writer.add_section("ctypo.sld_ends", ends);

    let mut target_rank = SectionBuf::with_capacity(n * 4 + 8);
    let mut kind = SectionBuf::with_capacity(n + 8);
    let mut position = SectionBuf::with_capacity(n * 4 + 8);
    let mut flags = SectionBuf::with_capacity(n + 8);
    let mut visual = SectionBuf::with_capacity(n * 8 + 8);
    let mut owner = SectionBuf::with_capacity(n * 4 + 8);
    let mut class = SectionBuf::with_capacity(n + 8);
    let mut smtp = SectionBuf::with_capacity(n + 8);
    let mut whois_mask = SectionBuf::with_capacity(n + 8);
    let mut ns = SectionBuf::with_capacity(n * 2 + 8);
    let mut mx = SectionBuf::with_capacity(n * 2 + 8);
    let mut created = SectionBuf::with_capacity(n * 2 + 8);
    target_rank.put_u32s(&column(rows, |r| r.meta.target_rank));
    kind.put_u8s(&column(rows, |r| encode_kind(r.kind)));
    position.put_u32s(&column(rows, |r| r.position));
    flags.put_u8s(&column(rows, |r| {
        let mut f = 0;
        if r.fat_finger {
            f |= FLAG_FAT_FINGER;
        }
        if r.meta.draw.private {
            f |= FLAG_PRIVATE;
        }
        if r.meta.draw.has_zone {
            f |= FLAG_HAS_ZONE;
        }
        if r.meta.draw.parked {
            f |= FLAG_PARKED;
        }
        f
    }));
    visual.put_f64s(&column(rows, |r| r.visual));
    owner.put_u32s(&column(rows, |r| r.owner));
    class.put_u8s(&column(rows, |r| encode_class(r.class)));
    smtp.put_u8s(&column(rows, |r| encode_smtp(r.meta.draw.smtp)));
    whois_mask.put_u8s(&column(rows, |r| r.meta.draw.whois_mask));
    ns.put_u16s(&column(rows, |r| r.meta.draw.ns));
    mx.put_u16s(&column(rows, |r| r.meta.draw.mx.unwrap_or(MX_NONE)));
    created.put_u16s(&column(rows, |r| r.meta.draw.created_day));
    writer.add_section("ctypo.target_rank", target_rank);
    writer.add_section("ctypo.kind", kind);
    writer.add_section("ctypo.position", position);
    writer.add_section("ctypo.flags", flags);
    writer.add_section("ctypo.visual", visual);
    writer.add_section("ctypo.owner", owner);
    writer.add_section("ctypo.class", class);
    writer.add_section("ctypo.smtp", smtp);
    writer.add_section("ctypo.whois_mask", whois_mask);
    writer.add_section("ctypo.ns", ns);
    writer.add_section("ctypo.mx", mx);
    writer.add_section("ctypo.created_day", created);
    writer.write_to(path)
}

/// One snapshot column: `f` of every ctypo row, in order.
fn column<T>(rows: &[CtypoRow], f: impl Fn(&CtypoRow) -> T) -> Vec<T> {
    rows.iter().map(f).collect()
}

/// One fully-read u8 column of length `expect`.
fn col_u8(snap: &Snapshot, name: &str, expect: usize) -> Result<Vec<u8>, LoadError> {
    let mut r = snap.section(name)?;
    let v = r.take_u8s()?.to_vec();
    r.finish()?;
    if v.len() != expect {
        return Err(LoadError::Corrupt(format!(
            "{name}: {} rows, expected {expect}",
            v.len()
        )));
    }
    Ok(v)
}

fn col_u16(snap: &Snapshot, name: &str, expect: usize) -> Result<Vec<u16>, LoadError> {
    let mut r = snap.section(name)?;
    let v = r.take_u16s()?;
    r.finish()?;
    if v.len() != expect {
        return Err(LoadError::Corrupt(format!(
            "{name}: {} rows, expected {expect}",
            v.len()
        )));
    }
    Ok(v)
}

fn col_u32(snap: &Snapshot, name: &str, expect: usize) -> Result<Vec<u32>, LoadError> {
    let mut r = snap.section(name)?;
    let v = r.take_u32s()?;
    r.finish()?;
    if v.len() != expect {
        return Err(LoadError::Corrupt(format!(
            "{name}: {} rows, expected {expect}",
            v.len()
        )));
    }
    Ok(v)
}

fn col_f64(snap: &Snapshot, name: &str, expect: usize) -> Result<Vec<f64>, LoadError> {
    let mut r = snap.section(name)?;
    let v = r.take_f64s()?;
    r.finish()?;
    if v.len() != expect {
        return Err(LoadError::Corrupt(format!(
            "{name}: {} rows, expected {expect}",
            v.len()
        )));
    }
    Ok(v)
}

/// Loads a world from `path`, verifying that the snapshot was written by
/// this schema version from exactly `config`. On success the returned
/// world is byte-identical (every derived result file included) to
/// `World::build(config)`.
pub fn load(path: &Path, config: &PopulationConfig) -> Result<World, LoadError> {
    // The records own their names, so the file buffer and the columns
    // are freed here, before the rebuild allocates the world.
    let records = read_records(path, config)?;
    World::from_snapshot_records(config.clone(), records).map_err(LoadError::Corrupt)
}

/// Reads and checks the snapshot at `path`: its schema version, its
/// config, and every ctypo record's columns.
fn read_records(path: &Path, config: &PopulationConfig) -> Result<Vec<CtypoRecord>, LoadError> {
    let snap = Snapshot::open(path)?;
    if snap.app_version() != WORLD_FORMAT_VERSION {
        return Err(LoadError::FormatVersion {
            found: snap.app_version(),
            expected: WORLD_FORMAT_VERSION,
        });
    }
    if snap.meta() != config_fingerprint(config).as_bytes() {
        return Err(LoadError::ConfigMismatch);
    }

    let mut ends_r = snap.section("ctypo.sld_ends")?;
    let ends = ends_r.take_u32s()?;
    ends_r.finish()?;
    let n = ends.len();
    let mut arena_r = snap.section("ctypo.sld_arena")?;
    let arena = arena_r.take_str()?;
    arena_r.finish()?;

    let target_rank = col_u32(&snap, "ctypo.target_rank", n)?;
    let kind = col_u8(&snap, "ctypo.kind", n)?;
    let position = col_u32(&snap, "ctypo.position", n)?;
    let flags = col_u8(&snap, "ctypo.flags", n)?;
    let visual = col_f64(&snap, "ctypo.visual", n)?;
    let owner = col_u32(&snap, "ctypo.owner", n)?;
    let class = col_u8(&snap, "ctypo.class", n)?;
    let smtp = col_u8(&snap, "ctypo.smtp", n)?;
    let whois_mask = col_u8(&snap, "ctypo.whois_mask", n)?;
    let ns = col_u16(&snap, "ctypo.ns", n)?;
    let mx = col_u16(&snap, "ctypo.mx", n)?;
    let created_day = col_u16(&snap, "ctypo.created_day", n)?;

    let mut records: Vec<CtypoRecord> = Vec::with_capacity(n);
    let mut prev_end = 0usize;
    for i in 0..n {
        let end = ends[i] as usize;
        let sld = arena
            .get(prev_end..end)
            .ok_or_else(|| LoadError::Corrupt(format!("sld arena bounds at row {i}")))?;
        prev_end = end;
        records.push(CtypoRecord {
            sld: sld.to_owned(),
            row: CtypoRow {
                class: decode_class(class[i])?,
                owner: owner[i],
                kind: decode_kind(kind[i])?,
                position: position[i],
                fat_finger: flags[i] & FLAG_FAT_FINGER != 0,
                visual: visual[i],
                meta: CtypoMeta {
                    target_rank: target_rank[i],
                    draw: CtypoDraw {
                        whois_mask: whois_mask[i],
                        private: flags[i] & FLAG_PRIVATE != 0,
                        ns: ns[i],
                        mx: (mx[i] != MX_NONE).then_some(mx[i]),
                        smtp: decode_smtp(smtp[i])?,
                        has_zone: flags[i] & FLAG_HAS_ZONE != 0,
                        parked: flags[i] & FLAG_PARKED != 0,
                        created_day: created_day[i],
                    },
                },
            },
        });
    }
    Ok(records)
}

/// Round-trips `world` through the snapshot encoding in memory (tests
/// and tooling; the file path goes through [`save`]/[`load`]).
pub fn roundtrip_in_memory(world: &World) -> Result<World, LoadError> {
    // One file per call, so concurrent round trips of the same seed
    // never share a path.
    static CALLS: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir();
    let path = dir.join(format!(
        "ets-world-roundtrip-{}-{}-{}.ets",
        std::process::id(),
        world.config.seed,
        CALLS.fetch_add(1, Ordering::Relaxed)
    ));
    save(world, &path)?;
    let out = load(&path, &world.config);
    if let Err(e) = std::fs::remove_file(&path) {
        eprintln!(
            "warning: failed to remove roundtrip temp file {}: {e}",
            path.display()
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::population::{MID_TIER_MX, MX_PROVIDERS};

    #[test]
    fn enum_codes_round_trip() {
        for k in MistakeKind::ALL {
            assert_eq!(decode_kind(encode_kind(k)).unwrap(), k);
        }
        for c in [
            DomainClass::Typosquatting,
            DomainClass::Defensive,
            DomainClass::BenignCollision,
        ] {
            assert_eq!(decode_class(encode_class(c)).unwrap(), c);
        }
        for s in [
            SmtpProfile::NoListener,
            SmtpProfile::PlainOnly,
            SmtpProfile::StarttlsBroken,
            SmtpProfile::StarttlsOk,
            SmtpProfile::SilentTimeout,
            SmtpProfile::ConnectionReset,
            SmtpProfile::BounceAll,
        ] {
            assert_eq!(decode_smtp(encode_smtp(s)).unwrap(), s);
        }
        assert!(decode_kind(9).is_err());
        assert!(decode_class(3).is_err()); // unregistered is never stored
        assert!(decode_smtp(7).is_err());
    }

    /// A world's ctypos as `load` decodes them from its snapshot.
    fn records_of(world: &World) -> Vec<CtypoRecord> {
        let names = world.ctypos.names();
        names
            .ids()
            .zip(world.ctypos.rows())
            .map(|(id, &row)| CtypoRecord {
                sld: names.sld(id).to_owned(),
                row,
            })
            .collect()
    }

    /// The rebuild's own checks, past the store's checksums: each edit
    /// of a tiny world's records is an error naming its cause, never a
    /// panic and never a world.
    #[test]
    fn edited_records_are_rejected() {
        let config = PopulationConfig::tiny(7);
        let records = records_of(&World::build(config.clone()));
        let squat = records
            .iter()
            .position(|r| r.row.class == DomainClass::Typosquatting)
            .expect("a tiny world has typosquatters");
        assert!(World::from_snapshot_records(config.clone(), records.clone()).is_ok());
        type Edit = fn(&mut Vec<CtypoRecord>, &PopulationConfig, usize);
        let cases: [(&str, &str, Edit); 10] = [
            ("two records swapped", "sorted order", |r, _, _| {
                r.swap(3, 4)
            }),
            ("a duplicated record", "sorted order", |r, _, _| {
                let dup = r[3].clone();
                r.insert(4, dup);
            }),
            ("a filler's name", "collides", |r, _, _| {
                // Rank 0 is gmail.com; alone, the record is in order.
                r.truncate(1);
                r[0].sld = "gmail".to_owned();
                r[0].row.meta.target_rank = 0;
            }),
            ("a background name", "collides", |r, _, _| {
                r.truncate(1);
                r[0].sld = "biz-0-0".to_owned();
                r[0].row.meta.target_rank = 0;
            }),
            ("an unparsable name", "bad ctypo name", |r, _, _| {
                r[0].sld = String::new()
            }),
            (
                "a target rank past the targets",
                "target rank",
                |r, c, _| {
                    r[0].row.meta.target_rank = c.n_targets as u32;
                },
            ),
            ("an owner past the registrants", "owner", |r, c, i| {
                r[i].row.owner = c.n_registrants as u32;
            }),
            ("an ns past the providers", "ns provider", |r, c, _| {
                r[0].row.meta.draw.ns = c.n_ns_providers as u16;
            }),
            ("an mx past the providers", "mx provider", |r, _, _| {
                r[0].row.meta.draw.mx = Some((MX_PROVIDERS.len() + MID_TIER_MX) as u16);
            }),
            ("the unregistered class", "unregistered", |r, _, _| {
                r[0].row.class = DomainClass::Unregistered;
            }),
        ];
        for (what, cause, edit) in cases {
            let mut edited = records.clone();
            edit(&mut edited, &config, squat);
            match World::from_snapshot_records(config.clone(), edited) {
                Ok(_) => panic!("{what}: loaded"),
                Err(e) => assert!(e.contains(cause), "{what}: {e}"),
            }
        }
    }
}
