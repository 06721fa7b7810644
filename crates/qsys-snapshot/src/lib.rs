//! Crash-safe persistence of a lane's warm state.
//!
//! The `SigInterner` arena and the optimizer's `WarmStore` (cost inputs,
//! candidate enumerations, canonical rank) are the system's accumulated
//! knowledge; without persistence a process restart throws them away and
//! the first batches after every deploy re-derive every cost input and
//! candidate enumeration. This crate serializes that state to a single
//! snapshot file and rehydrates it on engine construction — crash-safely in
//! both directions:
//!
//! - **Writes are atomic.** The image is built in memory, written to
//!   `qsys.snapshot.tmp`, fsynced, and renamed over `qsys.snapshot` (the
//!   directory is fsynced best-effort afterwards). A crash at any point
//!   leaves either the old snapshot or the new one, never a half-written
//!   file under the published name.
//! - **Loads trust nothing.** The file is self-describing — a magic tag, a
//!   format version, the engine-config fingerprint, and a catalog
//!   fingerprint in a checksummed header — and every section carries its
//!   own length and CRC-32. Any mismatch (version, fingerprint, checksum,
//!   truncation, or a decoded structure that fails the interner's or warm
//!   store's own validation) rejects the affected state, quarantines the
//!   file aside (`qsys.snapshot.corrupt-N`), and falls back to a cold
//!   start. Corruption can cost warmth; it can never panic the engine or
//!   change a decision.
//!
//! Rejection reasons and salvage counts are reported in
//! [`SnapshotSummary`], which the engine surfaces through its `RunReport`.
//!
//! Deterministic snapshot-I/O faults (torn write, short read, bit flip,
//! rename failure, write-time crash) come from
//! [`qsys_source::SnapFaults`] (`QSYS_FAULTS` `snap:` clauses) so recovery
//! scenarios replay byte-identically in tests and chaos runs.

pub mod wire;

use qsys_catalog::Catalog;
use qsys_opt::{ObservedCard, ObservedStats, WarmExport, WarmFact, WarmStore};
use qsys_query::{SigId, SigInterner, SubExprSig};
use qsys_source::SnapFaults;
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use wire::{crc32, fnv1a64, Dec, Enc};

/// Published snapshot file name inside `EngineConfig::snapshot_dir`.
pub const SNAPSHOT_FILE: &str = "qsys.snapshot";
/// Scratch name for the atomic tmp-write + rename publication.
pub const SNAPSHOT_TMP: &str = "qsys.snapshot.tmp";
/// Magic tag opening every snapshot file.
pub const MAGIC: &[u8; 8] = b"QSYSSNAP";
/// Current format version. Version 3 dropped the interner's child pairs
/// and the plan-memo section; a snapshot is a cache, not a compatibility
/// promise, so older (and newer) files are rejected whole and the engine
/// cold-starts.
pub const FORMAT_VERSION: u32 = 3;
/// Oldest format version this loader still accepts.
pub const MIN_FORMAT_VERSION: u32 = 3;

const SEC_HEADER: u8 = 0x01;
const SEC_INTERNER: u8 = 0x10;
const SEC_FACTS: u8 = 0x11;
const SEC_EXPENSIVE: u8 = 0x12;
const SEC_CANDIDATES: u8 = 0x13;
const SEC_RANK: u8 = 0x14;
// 0x15 is retired (the plan-memo section of formats 1–2); do not reuse it.
const SEC_OBSERVED: u8 = 0x16;
const SEC_LANE_END: u8 = 0x1F;

/// Sanity bound on the header's lane count (a corrupt count must not
/// drive allocation). Public so `qsys-verify` audits images against the
/// same ceiling the loader enforces.
pub const MAX_LANES: u32 = 65_536;

/// What snapshot recovery did, for the `RunReport`.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SnapshotSummary {
    /// A snapshot directory was configured and a published file existed.
    pub attempted: bool,
    /// At least one lane rehydrated from the snapshot.
    pub loaded: bool,
    /// Lanes that rehydrated (interner, at minimum).
    pub lanes_loaded: usize,
    /// Checksummed sections admitted into live state.
    pub sections_salvaged: usize,
    /// Sections dropped: checksum or framing failures, or decoded state
    /// that failed the interner's / warm store's own validation.
    pub sections_rejected: usize,
    /// First rejection reason, when anything was rejected.
    pub reason: Option<String>,
    /// Where the damaged/mismatched file was quarantined, if it was.
    pub quarantined: Option<String>,
    /// Size of the snapshot file read, in bytes.
    pub bytes: u64,
    /// Host time spent loading, µs.
    pub load_us: u64,
    /// Snapshots published by this engine so far.
    pub writes: usize,
    /// Errors from snapshot publications (e.g. an injected rename
    /// failure); the engine keeps running — persistence is best-effort.
    pub write_errors: Vec<String>,
}

/// Serializable image of one lane's warm state.
#[derive(Clone, Debug, Default)]
pub struct LaneImage {
    /// The interner arena in id order: one canonical signature per id.
    pub interner: Vec<SubExprSig>,
    /// The warm store's exportable state.
    pub warm: WarmExport,
    /// Observed per-leaf cardinalities learned by the adaptive loop
    /// (empty unless adaptive execution ran); id-sorted.
    pub observed: Vec<(SigId, ObservedCard)>,
}

/// Serializable image of a whole engine's warm state.
#[derive(Clone, Debug, Default)]
pub struct SnapshotImage {
    /// `OptimizerConfig::warm_fingerprint()` of the engine that recorded
    /// the state; a load under a different configuration is rejected.
    pub engine_fingerprint: String,
    /// [`catalog_fingerprint`] of the catalog the ids refer to.
    pub catalog_fingerprint: u64,
    /// Per-lane state, in lane-index order.
    pub lanes: Vec<LaneImage>,
}

/// One rehydrated lane, validated and ready to install.
#[derive(Debug)]
pub struct LoadedLane {
    /// Rebuilt interner (ids identical to the recording engine's).
    pub interner: SigInterner,
    /// Rebuilt warm store, validated against that interner.
    pub warm: WarmStore,
    /// Rehydrated observed cardinalities, validated against that
    /// interner (empty when nothing was observed).
    pub observed: ObservedStats,
}

/// Stable fingerprint of a catalog: FNV-1a over the debug rendering of its
/// relations and edges. Two engines agree on the fingerprint exactly when
/// they were built over the same schema graph and statistics — which is
/// the precondition for a snapshot's `RelId`s and cost inputs to be
/// meaningful. (FNV by hand because `DefaultHasher` is documented as
/// unstable across Rust releases, and a snapshot outlives the build that
/// wrote it.)
pub fn catalog_fingerprint(catalog: &Catalog) -> u64 {
    let rendering = format!("{:?}|{:?}", catalog.relations(), catalog.edges());
    fnv1a64(rendering.as_bytes())
}

fn push_section(out: &mut Vec<u8>, id: u8, body: &[u8]) {
    out.push(id);
    out.extend_from_slice(&(body.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(body).to_le_bytes());
    out.extend_from_slice(body);
}

fn encode_interner(lane: &LaneImage) -> Vec<u8> {
    let mut e = Enc::new();
    e.u32(lane.interner.len() as u32);
    for sig in &lane.interner {
        e.sub_expr_sig(sig);
    }
    e.into_bytes()
}

fn encode_facts(warm: &WarmExport) -> Vec<u8> {
    let mut e = Enc::new();
    match &warm.fingerprint {
        None => e.u8(0),
        Some(fp) => {
            e.u8(1);
            e.str(fp);
        }
    }
    e.u32(warm.facts.len() as u32);
    for (id, fact) in &warm.facts {
        e.sig_id(*id);
        e.f64(fact.card);
        e.u8(fact.streamed as u8);
        e.u32(fact.size);
    }
    e.into_bytes()
}

fn encode_expensive(warm: &WarmExport) -> Vec<u8> {
    let mut e = Enc::new();
    e.u32(warm.expensive.len() as u32);
    for (id, verdict) in &warm.expensive {
        e.sig_id(*id);
        e.u8(*verdict as u8);
    }
    e.into_bytes()
}

fn encode_candidates(warm: &WarmExport) -> Vec<u8> {
    let mut e = Enc::new();
    e.u32(warm.cq_candidates.len() as u32);
    for (whole, sigs) in &warm.cq_candidates {
        e.sig_id(*whole);
        e.sig_ids(sigs);
    }
    e.into_bytes()
}

fn encode_rank(warm: &WarmExport) -> Vec<u8> {
    let mut e = Enc::new();
    e.sig_ids(&warm.canon_order);
    e.into_bytes()
}

fn encode_observed(lane: &LaneImage) -> Vec<u8> {
    let mut e = Enc::new();
    e.u32(lane.observed.len() as u32);
    for (id, oc) in &lane.observed {
        e.sig_id(*id);
        e.u64(oc.tuples);
        e.u8(oc.exhausted as u8);
    }
    e.into_bytes()
}

/// Serialize an image to the wire format (magic, checksummed header,
/// per-lane checksummed sections).
pub fn encode_snapshot(image: &SnapshotImage) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(MAGIC);
    let mut header = Enc::new();
    header.u32(FORMAT_VERSION);
    header.str(&image.engine_fingerprint);
    header.u64(image.catalog_fingerprint);
    header.u32(image.lanes.len() as u32);
    push_section(&mut out, SEC_HEADER, &header.into_bytes());
    for lane in &image.lanes {
        push_section(&mut out, SEC_INTERNER, &encode_interner(lane));
        push_section(&mut out, SEC_FACTS, &encode_facts(&lane.warm));
        push_section(&mut out, SEC_EXPENSIVE, &encode_expensive(&lane.warm));
        push_section(&mut out, SEC_CANDIDATES, &encode_candidates(&lane.warm));
        push_section(&mut out, SEC_RANK, &encode_rank(&lane.warm));
        push_section(&mut out, SEC_OBSERVED, &encode_observed(lane));
        push_section(&mut out, SEC_LANE_END, &[]);
    }
    out
}

/// Publish a snapshot atomically into `dir`: tmp write + fsync + rename.
///
/// Returns the published byte count. Injected faults
/// ([`SnapFaults`]) apply here: `torn_write` truncates the bytes before
/// the tmp write (the torn file still gets published — exactly the damage
/// the loader must survive), `bit_flip` flips a bit after checksums were
/// computed, `rename_fail` fails publication (the previous snapshot
/// survives), and `crash_after_write` panics between the tmp write and the
/// rename — callers testing crash recovery catch the unwind.
pub fn write_snapshot(
    dir: &Path,
    image: &SnapshotImage,
    faults: Option<&SnapFaults>,
) -> Result<u64, String> {
    let mut bytes = encode_snapshot(image);
    if let Some(f) = faults {
        if let Some(k) = f.bit_flip {
            let k = k as usize;
            if k < bytes.len() {
                bytes[k] ^= 1;
            }
        }
        if let Some(k) = f.torn_write {
            bytes.truncate(k as usize);
        }
    }
    fs::create_dir_all(dir).map_err(|e| format!("snapshot dir {}: {e}", dir.display()))?;
    let tmp = dir.join(SNAPSHOT_TMP);
    let publish = dir.join(SNAPSHOT_FILE);
    {
        let mut file =
            fs::File::create(&tmp).map_err(|e| format!("create {}: {e}", tmp.display()))?;
        file.write_all(&bytes)
            .map_err(|e| format!("write {}: {e}", tmp.display()))?;
        file.sync_all()
            .map_err(|e| format!("fsync {}: {e}", tmp.display()))?;
    }
    if faults.is_some_and(|f| f.crash_after_write) {
        panic!("injected fault: crash after snapshot tmp write");
    }
    if faults.is_some_and(|f| f.rename_fail) {
        let _ = fs::remove_file(&tmp);
        return Err("injected fault: snapshot rename failed".into());
    }
    fs::rename(&tmp, &publish).map_err(|e| format!("publish {}: {e}", publish.display()))?;
    // Make the rename itself durable where the platform allows it; a
    // failure here degrades durability, not correctness.
    if let Ok(d) = fs::File::open(dir) {
        let _ = d.sync_all();
    }
    Ok(bytes.len() as u64)
}

/// One parsed section: id + checksum-verified body range.
struct Section<'a> {
    id: u8,
    body: &'a [u8],
    crc_ok: bool,
}

/// Iterate the section framing. A framing-level problem (length running
/// past the file, an unknown section id) ends iteration — everything after
/// it is unreliable. A checksum mismatch is *not* a framing problem: the
/// section is yielded with `crc_ok = false` so the loader can drop exactly
/// that section and keep walking.
struct Sections<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Iterator for Sections<'a> {
    type Item = Section<'a>;

    fn next(&mut self) -> Option<Section<'a>> {
        if self.pos + 9 > self.buf.len() {
            return None;
        }
        let id = self.buf[self.pos];
        let known = matches!(
            id,
            SEC_HEADER
                | SEC_INTERNER
                | SEC_FACTS
                | SEC_EXPENSIVE
                | SEC_CANDIDATES
                | SEC_RANK
                | SEC_OBSERVED
                | SEC_LANE_END
        );
        if !known {
            return None;
        }
        // The 9-byte header fits (checked above); `.ok()?` keeps the
        // slice-to-array conversions off the panic path regardless.
        let len =
            u32::from_le_bytes(self.buf[self.pos + 1..self.pos + 5].try_into().ok()?) as usize;
        let crc = u32::from_le_bytes(self.buf[self.pos + 5..self.pos + 9].try_into().ok()?);
        let start = self.pos + 9;
        if start + len > self.buf.len() {
            return None;
        }
        let body = &self.buf[start..start + len];
        self.pos = start + len;
        Some(Section {
            id,
            body,
            crc_ok: crc32(body) == crc,
        })
    }
}

/// Decoded facts section: the store's config fingerprint plus per-sig
/// cost facts.
type FactsSection = (Option<String>, Vec<(SigId, WarmFact)>);
/// Decoded candidate-memo rows: whole-query sig → candidate sigs.
type CandidateRows = Vec<(SigId, Box<[SigId]>)>;

fn decode_interner(body: &[u8]) -> Result<Vec<SubExprSig>, String> {
    let mut d = Dec::new(body);
    let n = d.count(1)?;
    let mut entries = Vec::with_capacity(n);
    for _ in 0..n {
        entries.push(d.sub_expr_sig()?);
    }
    d.finish()?;
    Ok(entries)
}

fn decode_facts(body: &[u8]) -> Result<FactsSection, String> {
    let mut d = Dec::new(body);
    let fingerprint = match d.u8()? {
        0 => None,
        1 => Some(d.str()?),
        t => return Err(format!("unknown fingerprint tag {t}")),
    };
    let n = d.count(17)?;
    let mut facts = Vec::with_capacity(n);
    for _ in 0..n {
        let id = d.sig_id()?;
        let card = d.f64()?;
        let streamed = d.u8()? != 0;
        let size = d.u32()?;
        facts.push((
            id,
            WarmFact {
                card,
                streamed,
                size,
            },
        ));
    }
    d.finish()?;
    Ok((fingerprint, facts))
}

fn decode_expensive(body: &[u8]) -> Result<Vec<(SigId, bool)>, String> {
    let mut d = Dec::new(body);
    let n = d.count(5)?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push((d.sig_id()?, d.u8()? != 0));
    }
    d.finish()?;
    Ok(out)
}

fn decode_candidates(body: &[u8]) -> Result<CandidateRows, String> {
    let mut d = Dec::new(body);
    let n = d.count(8)?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let whole = d.sig_id()?;
        let sigs = d.sig_ids()?.into_boxed_slice();
        out.push((whole, sigs));
    }
    d.finish()?;
    Ok(out)
}

fn decode_rank(body: &[u8]) -> Result<Vec<SigId>, String> {
    let mut d = Dec::new(body);
    let order = d.sig_ids()?;
    d.finish()?;
    Ok(order)
}

fn decode_observed(body: &[u8]) -> Result<Vec<(SigId, ObservedCard)>, String> {
    let mut d = Dec::new(body);
    let n = d.count(13)?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let id = d.sig_id()?;
        let tuples = d.u64()?;
        let exhausted = d.u8()? != 0;
        out.push((id, ObservedCard { tuples, exhausted }));
    }
    d.finish()?;
    Ok(out)
}

/// Per-lane accumulation while walking sections.
#[derive(Default)]
struct LaneBuild {
    interner: Option<SigInterner>,
    export: WarmExport,
    observed: Vec<(SigId, ObservedCard)>,
    salvaged: usize,
}

fn note_reject(summary: &mut SnapshotSummary, reason: String) {
    summary.sections_rejected += 1;
    summary.reason.get_or_insert(reason);
}

/// Load and validate the published snapshot in `dir`.
///
/// Returns per-lane rehydrated state (index = lane index at recording
/// time; `None` for lanes that could not be salvaged) plus the
/// [`SnapshotSummary`] describing what happened. All failure modes —
/// missing file, bad magic/version, fingerprint mismatches, checksum
/// failures, truncation, content that fails semantic validation — degrade
/// to cold state for the affected scope and are recorded; nothing panics.
/// When anything was rejected, the file is quarantined aside so the next
/// publication starts clean and the evidence survives for inspection.
pub fn load_snapshot(
    dir: &Path,
    expected_fingerprint: &str,
    catalog: &Catalog,
    faults: Option<&SnapFaults>,
) -> (Vec<Option<LoadedLane>>, SnapshotSummary) {
    let mut summary = SnapshotSummary::default();
    let started = std::time::Instant::now();
    let path = dir.join(SNAPSHOT_FILE);
    let mut bytes = match fs::read(&path) {
        Ok(b) => b,
        Err(_) => return (Vec::new(), summary), // no snapshot: plain cold start
    };
    summary.attempted = true;
    summary.bytes = bytes.len() as u64;
    if let Some(k) = faults.and_then(|f| f.short_read) {
        bytes.truncate(k as usize);
    }
    let lanes = parse_snapshot(&bytes, expected_fingerprint, catalog, &mut summary);
    summary.loaded = lanes.iter().any(|l| l.is_some());
    summary.lanes_loaded = lanes.iter().filter(|l| l.is_some()).count();
    if summary.reason.is_some() {
        summary.quarantined = quarantine(dir, &path);
    }
    summary.load_us = started.elapsed().as_micros() as u64;
    (lanes, summary)
}

/// Move a damaged/mismatched snapshot aside as `qsys.snapshot.corrupt-N`.
fn quarantine(dir: &Path, path: &Path) -> Option<String> {
    for n in 0..1000u32 {
        let target: PathBuf = dir.join(format!("{SNAPSHOT_FILE}.corrupt-{n}"));
        if target.exists() {
            continue;
        }
        return match fs::rename(path, &target) {
            Ok(()) => Some(target.display().to_string()),
            Err(_) => None,
        };
    }
    None
}

fn parse_snapshot(
    bytes: &[u8],
    expected_fingerprint: &str,
    catalog: &Catalog,
    summary: &mut SnapshotSummary,
) -> Vec<Option<LoadedLane>> {
    if bytes.len() < MAGIC.len() || &bytes[..MAGIC.len()] != MAGIC {
        note_reject(summary, "bad magic: not a qsys snapshot".into());
        return Vec::new();
    }
    let mut sections = Sections {
        buf: bytes,
        pos: MAGIC.len(),
    };
    // Header first: any problem here rejects the whole file, because
    // nothing after it can be trusted to belong to this engine.
    let header = match sections.next() {
        Some(s) if s.id == SEC_HEADER && s.crc_ok => s,
        _ => {
            note_reject(summary, "missing or corrupt header section".into());
            return Vec::new();
        }
    };
    let mut d = Dec::new(header.body);
    let parsed = (|| -> Result<(u32, String, u64, u32), String> {
        let version = d.u32()?;
        let fp = d.str()?;
        let cat = d.u64()?;
        let lanes = d.u32()?;
        Ok((version, fp, cat, lanes))
    })();
    let (version, fingerprint, catalog_fp, lane_count) = match parsed {
        Ok(h) => h,
        Err(e) => {
            note_reject(summary, format!("header decode: {e}"));
            return Vec::new();
        }
    };
    if !(MIN_FORMAT_VERSION..=FORMAT_VERSION).contains(&version) {
        note_reject(
            summary,
            format!("format version {version} (accepted {MIN_FORMAT_VERSION}..={FORMAT_VERSION})"),
        );
        return Vec::new();
    }
    if fingerprint != expected_fingerprint {
        note_reject(
            summary,
            format!("engine config fingerprint mismatch (snapshot `{fingerprint}`)"),
        );
        return Vec::new();
    }
    if catalog_fp != catalog_fingerprint(catalog) {
        note_reject(summary, "catalog fingerprint mismatch".into());
        return Vec::new();
    }
    if lane_count > MAX_LANES {
        note_reject(summary, format!("implausible lane count {lane_count}"));
        return Vec::new();
    }
    summary.sections_salvaged += 1; // the header itself

    let mut lanes: Vec<Option<LoadedLane>> = Vec::new();
    let mut build = LaneBuild::default();
    for section in sections {
        if lanes.len() >= lane_count as usize {
            break;
        }
        if !section.crc_ok {
            note_reject(
                summary,
                format!("checksum mismatch in section {:#x}", section.id),
            );
            continue;
        }
        match section.id {
            SEC_INTERNER => {
                match decode_interner(section.body)
                    .and_then(SigInterner::from_entries)
                    .and_then(|interner| validate_catalog_bounds(interner, catalog))
                {
                    Ok(interner) => {
                        build.interner = Some(interner);
                        build.salvaged += 1;
                    }
                    Err(e) => note_reject(summary, format!("interner section: {e}")),
                }
            }
            SEC_FACTS => match decode_facts(section.body) {
                Ok((fingerprint, facts)) => {
                    if fingerprint
                        .as_deref()
                        .is_some_and(|fp| fp != expected_fingerprint)
                    {
                        note_reject(summary, "warm store fingerprint mismatch".into());
                    } else {
                        build.export.fingerprint = fingerprint;
                        build.export.facts = facts;
                        build.salvaged += 1;
                    }
                }
                Err(e) => note_reject(summary, format!("facts section: {e}")),
            },
            SEC_EXPENSIVE => match decode_expensive(section.body) {
                Ok(expensive) => {
                    build.export.expensive = expensive;
                    build.salvaged += 1;
                }
                Err(e) => note_reject(summary, format!("expensive section: {e}")),
            },
            SEC_CANDIDATES => match decode_candidates(section.body) {
                Ok(cands) => {
                    build.export.cq_candidates = cands;
                    build.salvaged += 1;
                }
                Err(e) => note_reject(summary, format!("candidates section: {e}")),
            },
            SEC_RANK => match decode_rank(section.body) {
                Ok(order) => {
                    build.export.canon_order = order;
                    build.salvaged += 1;
                }
                Err(e) => note_reject(summary, format!("rank section: {e}")),
            },
            SEC_OBSERVED => match decode_observed(section.body) {
                Ok(observed) => {
                    build.observed = observed;
                    build.salvaged += 1;
                }
                Err(e) => note_reject(summary, format!("observed section: {e}")),
            },
            SEC_LANE_END => {
                lanes.push(finish_lane(
                    std::mem::take(&mut build),
                    expected_fingerprint,
                    summary,
                ));
            }
            // A second header (e.g. a bit-flipped section id) is damage.
            SEC_HEADER => note_reject(summary, "unexpected header section mid-file".into()),
            _ => unreachable!("Sections only yields known ids"),
        }
    }
    if lanes.len() < lane_count as usize {
        note_reject(
            summary,
            format!("truncated: {} of {lane_count} lanes present", lanes.len()),
        );
    }
    lanes
}

/// The interner's ids must all name relations the live catalog knows:
/// reading cost facts back against relations that do not exist (or a
/// reshaped schema) could change decisions, so the whole lane cold-starts
/// instead.
fn validate_catalog_bounds(
    interner: SigInterner,
    catalog: &Catalog,
) -> Result<SigInterner, String> {
    let n = catalog.relation_count() as u32;
    for i in 0..interner.len() {
        if interner.rels(SigId(i as u32)).iter().any(|r| r.0 >= n) {
            return Err(format!(
                "entry {i} names a relation outside the live catalog ({n} relations)"
            ));
        }
    }
    Ok(interner)
}

/// Close out one lane: build the warm store from whatever sections
/// survived, validated against the rebuilt interner. A lane without a
/// valid interner salvages nothing (every other section is keyed on its
/// ids); a warm store that fails validation falls back to cold.
fn finish_lane(
    build: LaneBuild,
    expected_fingerprint: &str,
    summary: &mut SnapshotSummary,
) -> Option<LoadedLane> {
    let mut salvaged = build.salvaged;
    let Some(interner) = build.interner else {
        summary.sections_rejected += salvaged; // sections without their interner
        summary
            .reason
            .get_or_insert_with(|| "lane had no valid interner section".into());
        return None;
    };
    let mut export = build.export;
    // A store that was populated before the snapshot carries the engine
    // fingerprint; an empty one carries `None`. Stamp the expected
    // fingerprint either way so the optimizer's first `ensure_config`
    // call keeps the loaded state instead of resetting a `None` store.
    export.fingerprint = Some(expected_fingerprint.to_string());
    let warm = match WarmStore::from_export(export, &interner) {
        Ok(warm) => warm,
        Err(e) => {
            note_reject(summary, format!("warm state validation: {e}"));
            let mut cold = WarmStore::new();
            cold.ensure_config(expected_fingerprint);
            cold
        }
    };
    // Observed cards are hints, not decisions: an image that fails the
    // interner-bounds check drops just this section, never the lane.
    let observed = match ObservedStats::from_export(build.observed, &interner) {
        Ok(observed) => observed,
        Err(e) => {
            note_reject(summary, format!("observed section validation: {e}"));
            salvaged = salvaged.saturating_sub(1); // it was counted on decode
            ObservedStats::new()
        }
    };
    summary.sections_salvaged += salvaged;
    Some(LoadedLane {
        interner,
        warm,
        observed,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use qsys_catalog::{EdgeKind, RelationStats};
    use qsys_types::{RelId, SourceId};

    fn catalog() -> Catalog {
        let mut b = Catalog::builder();
        let a = b.relation(
            "a",
            SourceId::new(0),
            vec!["k".into(), "v".into()],
            None,
            1.0,
            RelationStats::with_cardinality(100),
        );
        let c = b.relation(
            "c",
            SourceId::new(0),
            vec!["k".into(), "v".into()],
            None,
            1.0,
            RelationStats::with_cardinality(100),
        );
        b.edge(a, 1, c, 0, EdgeKind::ForeignKey, 1.0, 1.0);
        b.build()
    }

    fn image(catalog: &Catalog) -> SnapshotImage {
        let mut interner = SigInterner::new();
        let a = interner.relation(RelId::new(0), None);
        let c = interner.relation(RelId::new(1), None);
        let ac = interner.combine(a, c, &[(RelId::new(0), 1, RelId::new(1), 0)]);
        let mut warm = WarmStore::new();
        warm.ensure_config("fp");
        warm.set_fact(
            ac,
            WarmFact {
                card: 17.0,
                streamed: true,
                size: 2,
            },
        );
        warm.set_expensive(a, false);
        warm.set_cq_candidates(ac, Box::new([a, c]));
        warm.ensure_ranked([a, c, ac], &interner);
        SnapshotImage {
            engine_fingerprint: "fp".into(),
            catalog_fingerprint: catalog_fingerprint(catalog),
            lanes: vec![LaneImage {
                interner: interner.export_entries(),
                warm: warm.export(),
                observed: vec![(
                    a,
                    ObservedCard {
                        tuples: 42,
                        exhausted: true,
                    },
                )],
            }],
        }
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        static NEXT: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
        let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!(
            "qsys-snapshot-test-{}-{tag}-{n}",
            std::process::id()
        ));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn roundtrip_loads_every_section() {
        let cat = catalog();
        let img = image(&cat);
        let dir = tmp_dir("roundtrip");
        let bytes = write_snapshot(&dir, &img, None).unwrap();
        assert!(bytes > 0);
        let (lanes, summary) = load_snapshot(&dir, "fp", &cat, None);
        assert_eq!(summary.reason, None, "{summary:?}");
        assert!(summary.loaded && summary.attempted);
        assert_eq!(summary.lanes_loaded, 1);
        assert_eq!(summary.sections_rejected, 0);
        assert_eq!(summary.bytes, bytes);
        assert!(summary.quarantined.is_none());
        let lane = lanes[0].as_ref().unwrap();
        assert_eq!(lane.interner.len(), 3);
        let mut warm = WarmStore::from_export(lane.warm.export(), &lane.interner).unwrap();
        warm.begin_batch();
        assert!(warm.fact(SigId(2)).is_some());
        assert_eq!(
            lane.observed.card(SigId(0)),
            Some(ObservedCard {
                tuples: 42,
                exhausted: true
            }),
            "observed cards survive the roundtrip"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_observed_section_drops_only_the_hints() {
        let cat = catalog();
        let mut img = image(&cat);
        // Out-of-bounds id: decodes fine, fails interner validation.
        img.lanes[0].observed = vec![(
            SigId(999),
            ObservedCard {
                tuples: 1,
                exhausted: false,
            },
        )];
        let dir = tmp_dir("obsbad");
        write_snapshot(&dir, &img, None).unwrap();
        let (lanes, summary) = load_snapshot(&dir, "fp", &cat, None);
        assert!(summary.loaded, "the lane itself still rehydrates");
        assert!(summary
            .reason
            .as_deref()
            .unwrap()
            .contains("observed section validation"));
        let lane = lanes[0].as_ref().unwrap();
        assert!(lane.observed.is_empty());
        assert!(
            lane.warm.peek_fact(SigId(2)).is_some(),
            "warm facts are untouched by the dropped hints"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_file_is_a_plain_cold_start() {
        let dir = tmp_dir("missing");
        let (lanes, summary) = load_snapshot(&dir, "fp", &catalog(), None);
        assert!(lanes.is_empty());
        assert!(!summary.attempted && !summary.loaded);
        assert_eq!(summary.reason, None);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn fingerprint_and_version_mismatches_reject_and_quarantine() {
        let cat = catalog();
        let dir = tmp_dir("fpmismatch");
        write_snapshot(&dir, &image(&cat), None).unwrap();
        let (lanes, summary) = load_snapshot(&dir, "other-config", &cat, None);
        assert!(lanes.iter().all(|l| l.is_none()) && !summary.loaded);
        assert!(summary.reason.as_deref().unwrap().contains("fingerprint"));
        let quarantined = summary.quarantined.expect("file moved aside");
        assert!(Path::new(&quarantined).exists());
        assert!(!dir.join(SNAPSHOT_FILE).exists());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn catalog_mismatch_rejects() {
        let cat = catalog();
        let dir = tmp_dir("catmismatch");
        write_snapshot(&dir, &image(&cat), None).unwrap();
        let mut b = Catalog::builder();
        b.relation(
            "other",
            SourceId::new(0),
            vec!["k".into()],
            None,
            1.0,
            RelationStats::with_cardinality(5),
        );
        let other = b.build();
        let (lanes, summary) = load_snapshot(&dir, "fp", &other, None);
        assert!(!summary.loaded && lanes.iter().all(|l| l.is_none()));
        assert!(summary.reason.as_deref().unwrap().contains("catalog"));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn every_truncation_point_fails_soft() {
        let cat = catalog();
        let img = image(&cat);
        let full = encode_snapshot(&img);
        let dir = tmp_dir("truncate");
        // Walk a spread of cut points including 0, mid-header, mid-section.
        for cut in (0..full.len()).step_by(7).chain([full.len() - 1]) {
            fs::write(dir.join(SNAPSHOT_FILE), &full[..cut]).unwrap();
            let (lanes, summary) = load_snapshot(&dir, "fp", &cat, None);
            assert!(
                summary.reason.is_some(),
                "cut at {cut} must be detected as damage"
            );
            // Whatever loads must still be internally valid.
            for lane in lanes.iter().flatten() {
                assert!(lane.interner.len() <= 3);
            }
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn every_bit_flip_fails_soft_or_loads_nothing_wrong() {
        let cat = catalog();
        let img = image(&cat);
        let full = encode_snapshot(&img);
        let dir = tmp_dir("bitflip");
        for byte in 0..full.len() {
            let mut damaged = full.clone();
            damaged[byte] ^= 0x10;
            fs::write(dir.join(SNAPSHOT_FILE), &damaged).unwrap();
            // Must never panic; loaded lanes must have passed validation.
            let (_lanes, _summary) = load_snapshot(&dir, "fp", &cat, None);
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn injected_faults_corrupt_deterministically() {
        let cat = catalog();
        let img = image(&cat);

        // Torn write: published but truncated → detected at load.
        let dir = tmp_dir("torn");
        let faults = SnapFaults {
            torn_write: Some(40),
            ..SnapFaults::default()
        };
        assert_eq!(write_snapshot(&dir, &img, Some(&faults)).unwrap(), 40);
        let (_, summary) = load_snapshot(&dir, "fp", &cat, None);
        assert!(summary.attempted && summary.reason.is_some());
        let _ = fs::remove_dir_all(&dir);

        // Bit flip after checksumming → checksum catches it.
        let dir = tmp_dir("flip");
        let faults = SnapFaults {
            bit_flip: Some(64),
            ..SnapFaults::default()
        };
        write_snapshot(&dir, &img, Some(&faults)).unwrap();
        let (_, summary) = load_snapshot(&dir, "fp", &cat, None);
        assert!(summary.reason.is_some());
        let _ = fs::remove_dir_all(&dir);

        // Short read: loader sees a prefix → detected.
        let dir = tmp_dir("short");
        write_snapshot(&dir, &img, None).unwrap();
        let faults = SnapFaults {
            short_read: Some(50),
            ..SnapFaults::default()
        };
        let (_, summary) = load_snapshot(&dir, "fp", &cat, Some(&faults));
        assert!(summary.reason.is_some());
        let _ = fs::remove_dir_all(&dir);

        // Rename failure: publication fails, nothing published.
        let dir = tmp_dir("rename");
        let faults = SnapFaults {
            rename_fail: true,
            ..SnapFaults::default()
        };
        assert!(write_snapshot(&dir, &img, Some(&faults)).is_err());
        assert!(!dir.join(SNAPSHOT_FILE).exists());
        let _ = fs::remove_dir_all(&dir);

        // Crash hook: panics after the tmp write, before the rename.
        let dir = tmp_dir("crash");
        let faults = SnapFaults {
            crash_after_write: true,
            ..SnapFaults::default()
        };
        let img2 = img.clone();
        let dir2 = dir.clone();
        let crashed = std::panic::catch_unwind(move || {
            let _ = write_snapshot(&dir2, &img2, Some(&faults));
        });
        assert!(crashed.is_err());
        assert!(dir.join(SNAPSHOT_TMP).exists(), "tmp left behind");
        assert!(!dir.join(SNAPSHOT_FILE).exists(), "never published");
        // A restart after the crash cold-starts cleanly (no file = no
        // attempt) and the next publication succeeds over the debris.
        let (_, summary) = load_snapshot(&dir, "fp", &cat, None);
        assert!(!summary.attempted);
        write_snapshot(&dir, &img, None).unwrap();
        let (_, summary) = load_snapshot(&dir, "fp", &cat, None);
        assert!(summary.loaded && summary.reason.is_none());
        let _ = fs::remove_dir_all(&dir);
    }
}
