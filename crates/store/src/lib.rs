//! # ets-store
//!
//! A versioned, checksummed, **section-based** on-disk container for
//! pipeline snapshots — the persistence layer under the ecosystem's
//! world snapshot.
//!
//! The format follows the layered-state pattern of production state
//! stores: a fixed header (magic, container version, application
//! version), an opaque application meta blob, a table of contents of
//! named sections (length + FNV-1a checksum each), the section payloads
//! back to back, and a trailing whole-file checksum. Readers validate
//! structure and the file checksum on open, and each section's checksum
//! on first access, so truncation, bit flips, and stale formats all
//! surface as typed [`StoreError`]s — never a panic and never silently
//! wrong data.
//!
//! Reload is near-zero-copy: [`Snapshot::open`] reads the file into one
//! buffer, and [`SectionReader`] hands out borrowed slices (string
//! arenas, raw columns) directly from it; only fixed-width column
//! decodes copy, element by element, because this workspace forbids
//! `unsafe` transmutes.
//!
//! Everything is little-endian and independent of the host. The
//! container carries *no* domain knowledge: what the sections mean is
//! the application's business (see `ets_ecosystem::snapshot`).

#![forbid(unsafe_code)]

use std::fmt;
use std::fs;
use std::io::Write as _;
use std::path::Path;

/// Magic bytes opening every snapshot file.
pub const MAGIC: [u8; 8] = *b"ETSSTOR\x01";
/// Version of the *container layout* itself (header/TOC/checksum
/// framing). Bumped only when this module's framing changes;
/// applications carry their own format version on top.
pub const CONTAINER_VERSION: u32 = 1;

/// Why a snapshot could not be written or read back. Every variant is a
/// recoverable condition: callers fall back to a fresh build and log the
/// reason.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// Underlying filesystem error.
    Io(String),
    /// The file does not start with [`MAGIC`] — not a snapshot at all.
    BadMagic,
    /// The container layout version is not one this reader understands.
    UnsupportedContainer {
        /// Version found in the header.
        found: u32,
    },
    /// The file ends before its own structure says it should.
    Truncated,
    /// A checksum did not match; `section` is empty for the whole-file
    /// checksum.
    ChecksumMismatch {
        /// Name of the failing section, or empty for the file trailer.
        section: String,
    },
    /// The named section is not present in the table of contents.
    MissingSection(String),
    /// Structurally invalid content (bad lengths, non-UTF-8 names, a
    /// cursor read past a section's end).
    Malformed(String),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "io error: {e}"),
            StoreError::BadMagic => write!(f, "not a snapshot file (bad magic)"),
            StoreError::UnsupportedContainer { found } => {
                write!(
                    f,
                    "unsupported container version {found} (reader supports {CONTAINER_VERSION})"
                )
            }
            StoreError::Truncated => write!(f, "truncated snapshot file"),
            StoreError::ChecksumMismatch { section } if section.is_empty() => {
                write!(f, "file checksum mismatch (corrupt snapshot)")
            }
            StoreError::ChecksumMismatch { section } => {
                write!(f, "checksum mismatch in section {section:?}")
            }
            StoreError::MissingSection(name) => write!(f, "missing section {name:?}"),
            StoreError::Malformed(what) => write!(f, "malformed snapshot: {what}"),
        }
    }
}

impl std::error::Error for StoreError {}

/// FNV-1a 64 over `bytes`, continuing from `state`. The workspace's
/// standard cheap stable hash; plenty for integrity against truncation
/// and bit rot (this is not a cryptographic seal).
fn fnv1a(state: u64, bytes: &[u8]) -> u64 {
    let mut h = state;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// FNV-1a offset basis.
const FNV_OFFSET: u64 = 0xcbf29ce484222325;

// ---------------------------------------------------------------------
// Writing
// ---------------------------------------------------------------------

/// An in-memory section under construction: a byte buffer with typed
/// little-endian appenders.
#[derive(Debug, Default)]
pub struct SectionBuf {
    buf: Vec<u8>,
}

impl SectionBuf {
    /// An empty section buffer.
    pub fn new() -> SectionBuf {
        SectionBuf::default()
    }

    /// An empty section buffer with `cap` bytes reserved.
    pub fn with_capacity(cap: usize) -> SectionBuf {
        SectionBuf {
            buf: Vec::with_capacity(cap),
        }
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Appends one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a little-endian `u16`.
    pub fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends raw bytes with a `u64` length prefix.
    pub fn put_bytes(&mut self, v: &[u8]) {
        self.put_u64(v.len() as u64);
        self.buf.extend_from_slice(v);
    }

    /// Appends a UTF-8 string with a `u64` length prefix.
    pub fn put_str(&mut self, v: &str) {
        self.put_bytes(v.as_bytes());
    }

    /// Appends a `u8` column with a `u64` count prefix.
    pub fn put_u8s(&mut self, v: &[u8]) {
        self.put_bytes(v);
    }

    /// Appends a `u16` column with a `u64` count prefix.
    pub fn put_u16s(&mut self, v: &[u16]) {
        self.put_u64(v.len() as u64);
        for &x in v {
            self.buf.extend_from_slice(&x.to_le_bytes());
        }
    }

    /// Appends a `u32` column with a `u64` count prefix.
    pub fn put_u32s(&mut self, v: &[u32]) {
        self.put_u64(v.len() as u64);
        for &x in v {
            self.buf.extend_from_slice(&x.to_le_bytes());
        }
    }

    /// Appends a `u64` column with a `u64` count prefix.
    pub fn put_u64s(&mut self, v: &[u64]) {
        self.put_u64(v.len() as u64);
        for &x in v {
            self.buf.extend_from_slice(&x.to_le_bytes());
        }
    }

    /// Appends an `f64` column (bit patterns) with a `u64` count prefix.
    pub fn put_f64s(&mut self, v: &[f64]) {
        self.put_u64(v.len() as u64);
        for &x in v {
            self.buf.extend_from_slice(&x.to_bits().to_le_bytes());
        }
    }
}

/// Builds a snapshot file: named sections plus an opaque application
/// meta blob, all framed with checksums by [`SnapshotWriter::finish`].
#[derive(Debug)]
pub struct SnapshotWriter {
    app_version: u32,
    meta: Vec<u8>,
    sections: Vec<(String, SectionBuf)>,
}

impl SnapshotWriter {
    /// A writer for an application snapshot format `app_version`, with
    /// `meta` as the opaque application header (typically JSON).
    pub fn new(app_version: u32, meta: &[u8]) -> SnapshotWriter {
        SnapshotWriter {
            app_version,
            meta: meta.to_vec(),
            sections: Vec::new(),
        }
    }

    /// Adds a named section. Names must be unique; a duplicate replaces
    /// the earlier section (last write wins).
    pub fn add_section(&mut self, name: &str, buf: SectionBuf) {
        if let Some(slot) = self.sections.iter_mut().find(|(n, _)| n == name) {
            slot.1 = buf;
        } else {
            self.sections.push((name.to_owned(), buf));
        }
    }

    /// Serializes the full container to bytes.
    pub fn finish(&self) -> Vec<u8> {
        let payload_len: usize = self.sections.iter().map(|(_, b)| b.buf.len()).sum();
        let mut out = Vec::with_capacity(payload_len + self.meta.len() + 256);
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&CONTAINER_VERSION.to_le_bytes());
        out.extend_from_slice(&self.app_version.to_le_bytes());
        out.extend_from_slice(&(self.meta.len() as u32).to_le_bytes());
        out.extend_from_slice(&self.meta);
        out.extend_from_slice(&(self.sections.len() as u32).to_le_bytes());
        for (name, buf) in &self.sections {
            out.extend_from_slice(&(name.len() as u16).to_le_bytes());
            out.extend_from_slice(name.as_bytes());
            out.extend_from_slice(&(buf.buf.len() as u64).to_le_bytes());
            out.extend_from_slice(&fnv1a(FNV_OFFSET, &buf.buf).to_le_bytes());
        }
        for (_, buf) in &self.sections {
            out.extend_from_slice(&buf.buf);
        }
        let file_sum = fnv1a(FNV_OFFSET, &out);
        out.extend_from_slice(&file_sum.to_le_bytes());
        out
    }

    /// Serializes and writes the container to `path` atomically (temp
    /// file in the same directory, then rename), so a crashed writer
    /// never leaves a half-written snapshot behind.
    pub fn write_to(&self, path: &Path) -> Result<(), StoreError> {
        let bytes = self.finish();
        let io = |e: std::io::Error| StoreError::Io(e.to_string());
        let tmp = path.with_extension("tmp");
        let mut f = fs::File::create(&tmp).map_err(io)?;
        f.write_all(&bytes).map_err(io)?;
        f.sync_all().map_err(io)?;
        drop(f);
        fs::rename(&tmp, path).map_err(io)
    }
}

// ---------------------------------------------------------------------
// Reading
// ---------------------------------------------------------------------

#[derive(Debug)]
struct TocEntry {
    name: String,
    start: usize,
    len: usize,
    checksum: u64,
}

/// A loaded snapshot: one backing buffer plus the parsed table of
/// contents. Sections borrow straight from the buffer.
#[derive(Debug)]
pub struct Snapshot {
    data: Vec<u8>,
    app_version: u32,
    meta_start: usize,
    meta_len: usize,
    toc: Vec<TocEntry>,
}

/// Reads `data[pos..pos+N]` as a fixed-width little-endian integer.
fn take_fixed<const N: usize>(data: &[u8], pos: &mut usize) -> Result<[u8; N], StoreError> {
    let end = pos.checked_add(N).ok_or(StoreError::Truncated)?;
    let slice = data.get(*pos..end).ok_or(StoreError::Truncated)?;
    *pos = end;
    let mut out = [0u8; N];
    out.copy_from_slice(slice);
    Ok(out)
}

impl Snapshot {
    /// Opens and structurally validates a snapshot file: magic,
    /// container version, TOC bounds, and the whole-file checksum (which
    /// catches truncation and bit flips anywhere). Individual section
    /// checksums are re-verified on [`Snapshot::section`] access so a
    /// failure names the damaged section.
    pub fn open(path: &Path) -> Result<Snapshot, StoreError> {
        let data = fs::read(path).map_err(|e| StoreError::Io(e.to_string()))?;
        Snapshot::from_bytes(data)
    }

    /// Parses an already-read container (see [`Snapshot::open`]).
    pub fn from_bytes(data: Vec<u8>) -> Result<Snapshot, StoreError> {
        if data.len() < MAGIC.len() + 8 {
            return Err(StoreError::Truncated);
        }
        if data[..MAGIC.len()] != MAGIC {
            return Err(StoreError::BadMagic);
        }
        // Trailing whole-file checksum first: it covers every other
        // field, so any truncation or flip below fails here already.
        let body_end = data.len() - 8;
        let mut trailer = [0u8; 8];
        trailer.copy_from_slice(&data[body_end..]);
        if fnv1a(FNV_OFFSET, &data[..body_end]) != u64::from_le_bytes(trailer) {
            return Err(StoreError::ChecksumMismatch {
                section: String::new(),
            });
        }
        let mut pos = MAGIC.len();
        let container = u32::from_le_bytes(take_fixed::<4>(&data, &mut pos)?);
        if container != CONTAINER_VERSION {
            return Err(StoreError::UnsupportedContainer { found: container });
        }
        let app_version = u32::from_le_bytes(take_fixed::<4>(&data, &mut pos)?);
        let meta_len = u32::from_le_bytes(take_fixed::<4>(&data, &mut pos)?) as usize;
        let meta_start = pos;
        pos = pos.checked_add(meta_len).ok_or(StoreError::Truncated)?;
        if pos > body_end {
            return Err(StoreError::Truncated);
        }
        let n_sections = u32::from_le_bytes(take_fixed::<4>(&data, &mut pos)?) as usize;
        let mut toc = Vec::with_capacity(n_sections);
        let mut lens = Vec::with_capacity(n_sections);
        for _ in 0..n_sections {
            let name_len = u16::from_le_bytes(take_fixed::<2>(&data, &mut pos)?) as usize;
            let name_end = pos.checked_add(name_len).ok_or(StoreError::Truncated)?;
            let name_bytes = data.get(pos..name_end).ok_or(StoreError::Truncated)?;
            let name = std::str::from_utf8(name_bytes)
                .map_err(|_| StoreError::Malformed("non-UTF-8 section name".to_owned()))?
                .to_owned();
            pos = name_end;
            let len = u64::from_le_bytes(take_fixed::<8>(&data, &mut pos)?) as usize;
            let checksum = u64::from_le_bytes(take_fixed::<8>(&data, &mut pos)?);
            lens.push((name, len, checksum));
        }
        // Payload offsets are implicit: sections sit back to back after
        // the TOC, in TOC order.
        let mut start = pos;
        for (name, len, checksum) in lens {
            let end = start.checked_add(len).ok_or(StoreError::Truncated)?;
            if end > body_end {
                return Err(StoreError::Truncated);
            }
            toc.push(TocEntry {
                name,
                start,
                len,
                checksum,
            });
            start = end;
        }
        if start != body_end {
            return Err(StoreError::Malformed(
                "payload length disagrees with table of contents".to_owned(),
            ));
        }
        Ok(Snapshot {
            data,
            app_version,
            meta_start,
            meta_len,
            toc,
        })
    }

    /// The application format version recorded by the writer.
    pub fn app_version(&self) -> u32 {
        self.app_version
    }

    /// The opaque application meta blob.
    pub fn meta(&self) -> &[u8] {
        &self.data[self.meta_start..self.meta_start + self.meta_len]
    }

    /// Names of all sections, in file order.
    pub fn section_names(&self) -> Vec<&str> {
        self.toc.iter().map(|t| t.name.as_str()).collect()
    }

    /// A checksum-verified cursor over the named section's bytes
    /// (borrowed from the file buffer — no copy).
    pub fn section(&self, name: &str) -> Result<SectionReader<'_>, StoreError> {
        let entry = self
            .toc
            .iter()
            .find(|t| t.name == name)
            .ok_or_else(|| StoreError::MissingSection(name.to_owned()))?;
        let buf = &self.data[entry.start..entry.start + entry.len];
        if fnv1a(FNV_OFFSET, buf) != entry.checksum {
            return Err(StoreError::ChecksumMismatch {
                section: entry.name.clone(),
            });
        }
        Ok(SectionReader {
            name: &entry.name,
            buf,
            pos: 0,
        })
    }
}

/// A bounds-checked little-endian cursor over one section's bytes.
/// Every read returns a typed error instead of panicking, so corrupt
/// content can never abort a run.
#[derive(Debug)]
pub struct SectionReader<'a> {
    name: &'a str,
    buf: &'a [u8],
    pos: usize,
}

impl<'a> SectionReader<'a> {
    fn short(&self) -> StoreError {
        StoreError::Malformed(format!("section {:?} shorter than its content", self.name))
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], StoreError> {
        let end = self.pos.checked_add(n).ok_or_else(|| self.short())?;
        let slice = self.buf.get(self.pos..end).ok_or_else(|| self.short())?;
        self.pos = end;
        Ok(slice)
    }

    fn take_array<const N: usize>(&mut self) -> Result<[u8; N], StoreError> {
        let slice = self.take(N)?;
        let mut out = [0u8; N];
        out.copy_from_slice(slice);
        Ok(out)
    }

    /// A length prefix, validated against the bytes actually remaining
    /// so a corrupt count can never trigger a huge allocation.
    fn take_count(&mut self, elem_bytes: usize) -> Result<usize, StoreError> {
        let n = u64::from_le_bytes(self.take_array::<8>()?);
        let n = usize::try_from(n).map_err(|_| self.short())?;
        let total = n.checked_mul(elem_bytes).ok_or_else(|| self.short())?;
        if total > self.buf.len() - self.pos {
            return Err(self.short());
        }
        Ok(n)
    }

    /// Bytes left to read.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Reads one byte.
    pub fn take_u8(&mut self) -> Result<u8, StoreError> {
        Ok(self.take_array::<1>()?[0])
    }

    /// Reads a little-endian `u64`.
    pub fn take_u64(&mut self) -> Result<u64, StoreError> {
        Ok(u64::from_le_bytes(self.take_array::<8>()?))
    }

    /// Reads a length-prefixed byte slice, borrowed (zero-copy).
    pub fn take_bytes(&mut self) -> Result<&'a [u8], StoreError> {
        let n = self.take_count(1)?;
        self.take(n)
    }

    /// Reads a length-prefixed UTF-8 string slice, borrowed (zero-copy).
    pub fn take_str(&mut self) -> Result<&'a str, StoreError> {
        let bytes = self.take_bytes()?;
        std::str::from_utf8(bytes).map_err(|_| {
            StoreError::Malformed(format!("section {:?}: non-UTF-8 string", self.name))
        })
    }

    /// Reads a count-prefixed `u8` column, borrowed (zero-copy).
    pub fn take_u8s(&mut self) -> Result<&'a [u8], StoreError> {
        self.take_bytes()
    }

    /// Reads a count-prefixed `u16` column (one decode copy).
    pub fn take_u16s(&mut self) -> Result<Vec<u16>, StoreError> {
        let n = self.take_count(2)?;
        let raw = self.take(n * 2)?;
        Ok(raw
            .chunks_exact(2)
            .map(|c| u16::from_le_bytes([c[0], c[1]]))
            .collect())
    }

    /// Reads a count-prefixed `u32` column (one decode copy).
    pub fn take_u32s(&mut self) -> Result<Vec<u32>, StoreError> {
        let n = self.take_count(4)?;
        let raw = self.take(n * 4)?;
        Ok(raw
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes([c[0], c[1], c[2], c[3]]))
            .collect())
    }

    /// Reads a count-prefixed `u64` column (one decode copy).
    pub fn take_u64s(&mut self) -> Result<Vec<u64>, StoreError> {
        let n = self.take_count(8)?;
        let raw = self.take(n * 8)?;
        Ok(raw
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes([c[0], c[1], c[2], c[3], c[4], c[5], c[6], c[7]]))
            .collect())
    }

    /// Reads a count-prefixed `f64` column (bit patterns, one decode
    /// copy — exact round-trip).
    pub fn take_f64s(&mut self) -> Result<Vec<f64>, StoreError> {
        Ok(self.take_u64s()?.into_iter().map(f64::from_bits).collect())
    }

    /// Asserts the section was fully consumed — catches writer/reader
    /// schema drift early.
    pub fn finish(self) -> Result<(), StoreError> {
        if self.pos != self.buf.len() {
            return Err(StoreError::Malformed(format!(
                "section {:?}: {} trailing bytes",
                self.name,
                self.buf.len() - self.pos
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<u8> {
        let mut w = SnapshotWriter::new(7, br#"{"seed":42}"#);
        let mut a = SectionBuf::new();
        a.put_u32s(&[1, 2, 3, u32::MAX]);
        a.put_str("hello.example");
        w.add_section("alpha", a);
        let mut b = SectionBuf::new();
        b.put_f64s(&[0.5, -1.25, f64::MIN_POSITIVE]);
        b.put_u8(9);
        b.put_u16s(&[700, 0]);
        w.add_section("beta", b);
        w.finish()
    }

    #[test]
    fn round_trips_all_types() {
        let snap = Snapshot::from_bytes(sample()).unwrap();
        assert_eq!(snap.app_version(), 7);
        assert_eq!(snap.meta(), br#"{"seed":42}"#);
        assert_eq!(snap.section_names(), vec!["alpha", "beta"]);
        let mut a = snap.section("alpha").unwrap();
        assert_eq!(a.take_u32s().unwrap(), vec![1, 2, 3, u32::MAX]);
        assert_eq!(a.take_str().unwrap(), "hello.example");
        a.finish().unwrap();
        let mut b = snap.section("beta").unwrap();
        assert_eq!(b.take_f64s().unwrap(), vec![0.5, -1.25, f64::MIN_POSITIVE]);
        assert_eq!(b.take_u8().unwrap(), 9);
        assert_eq!(b.take_u16s().unwrap(), vec![700, 0]);
        b.finish().unwrap();
    }

    #[test]
    fn bad_magic_is_detected() {
        let mut bytes = sample();
        bytes[0] = b'X';
        assert!(matches!(
            Snapshot::from_bytes(bytes),
            Err(StoreError::BadMagic)
        ));
    }

    #[test]
    fn every_single_byte_flip_is_detected() {
        let good = sample();
        for i in 0..good.len() {
            let mut bytes = good.clone();
            bytes[i] ^= 0x40;
            let result = Snapshot::from_bytes(bytes).map(|_| ());
            assert!(result.is_err(), "flip at byte {i} went undetected");
        }
    }

    #[test]
    fn every_truncation_is_detected() {
        let good = sample();
        for keep in 0..good.len() {
            let result = Snapshot::from_bytes(good[..keep].to_vec()).map(|_| ());
            assert!(result.is_err(), "truncation to {keep} bytes undetected");
        }
    }

    #[test]
    fn missing_section_and_overread_are_errors() {
        let snap = Snapshot::from_bytes(sample()).unwrap();
        assert!(matches!(
            snap.section("gamma"),
            Err(StoreError::MissingSection(_))
        ));
        let mut a = snap.section("alpha").unwrap();
        let _ = a.take_u32s().unwrap();
        let _ = a.take_str().unwrap();
        assert!(a.take_u64().is_err()); // past the end
    }

    #[test]
    fn unsupported_container_version() {
        let mut bytes = sample();
        // Rewrite the container version field and re-seal the trailer.
        bytes[8..12].copy_from_slice(&99u32.to_le_bytes());
        let body_end = bytes.len() - 8;
        let sum = fnv1a(FNV_OFFSET, &bytes[..body_end]);
        bytes[body_end..].copy_from_slice(&sum.to_le_bytes());
        assert!(matches!(
            Snapshot::from_bytes(bytes),
            Err(StoreError::UnsupportedContainer { found: 99 })
        ));
    }

    #[test]
    fn corrupt_count_cannot_allocate() {
        // A section whose count prefix claims far more elements than the
        // section holds must error out, not try to allocate.
        let mut w = SnapshotWriter::new(1, b"");
        let mut s = SectionBuf::new();
        s.put_u64(u64::MAX); // bogus count with no payload behind it
        w.add_section("bogus", s);
        let snap = Snapshot::from_bytes(w.finish()).unwrap();
        let mut r = snap.section("bogus").unwrap();
        assert!(r.take_u32s().is_err());
    }

    #[test]
    fn atomic_write_and_open() {
        let dir = std::env::temp_dir().join("ets-store-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sample.ets");
        let mut w = SnapshotWriter::new(3, b"meta");
        let mut s = SectionBuf::new();
        s.put_u64s(&[10, 20]);
        w.add_section("only", s);
        w.write_to(&path).unwrap();
        let snap = Snapshot::open(&path).unwrap();
        assert_eq!(snap.app_version(), 3);
        let mut r = snap.section("only").unwrap();
        assert_eq!(r.take_u64s().unwrap(), vec![10, 20]);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn duplicate_section_last_write_wins() {
        let mut w = SnapshotWriter::new(1, b"");
        let mut first = SectionBuf::new();
        first.put_u8(1);
        let mut second = SectionBuf::new();
        second.put_u8(2);
        w.add_section("s", first);
        w.add_section("s", second);
        let snap = Snapshot::from_bytes(w.finish()).unwrap();
        assert_eq!(snap.section_names().len(), 1);
        assert_eq!(snap.section("s").unwrap().take_u8().unwrap(), 2);
    }
}
