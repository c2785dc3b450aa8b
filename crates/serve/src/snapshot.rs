//! Versioned on-disk snapshots of retained incremental state.
//!
//! A retained base (DESIGN.md §13) is expensive: a cold analysis plus
//! the committed group slab. When the `StateCache` evicts one — or the
//! server drains — the base is serialized to
//! `<data-dir>/snapshots/<key>.snap` so a later delta query against
//! that key (possibly in a *restarted* process) rehydrates it instead
//! of answering 404 and forcing a cold re-analysis.
//!
//! Bit-identity is the contract (the incremental engine promises delta
//! answers bit-identical to cold runs, so persistence must not launder
//! a single mantissa bit). The format is therefore binary with every
//! `f64` stored as its IEEE-754 bit pattern: group probabilities,
//! per-node dropped mass — floats never pass through decimal text.
//! Strings (circuit spec text, config JSON, warnings) are
//! length-prefixed UTF-8. The whole file carries a trailing FNV-1a
//! checksum; a corrupt or version-mismatched snapshot is reported as a
//! typed warning and ignored (the delta query then 404s exactly as if
//! no snapshot existed — never wrong state).
//!
//! Writes go to a temp file then `rename(2)`, so a crash mid-save
//! leaves either the old snapshot or none — never a torn one under the
//! live name.

use crate::api::CircuitSpec;
use crate::cache::{fnv1a64, CachedCircuit, CircuitCache, RetainedState, StateCache};
use pep_core::{AnalysisConfig, IncrementalAnalyzer, NodeRecordExport, RetainedBase};
use pep_dist::DiscreteDist;
use pep_obs::Warning;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

fn lock_recover<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// File magic + format version. Bump the trailing digit on any layout
/// change: old snapshots then fail the magic check and are ignored
/// (typed, not fatal).
const MAGIC: &[u8; 8] = b"PEPSNAP1";

/// Snapshots larger than this are refused at save time (a retained
/// base scales with circuit size; 1 GiB is far beyond any supported
/// profile and bounds hostile/corrupt reads too).
const MAX_SNAPSHOT_BYTES: usize = 1 << 30;

/// Cap on remembered snapshot warnings (oldest dropped first).
const MAX_WARNINGS: usize = 64;

/// The on-disk snapshot store under `<data-dir>/snapshots/`.
#[derive(Debug)]
pub struct SnapshotStore {
    dir: PathBuf,
    saves: AtomicU64,
    save_failures: AtomicU64,
    rehydrations: AtomicU64,
    rehydration_failures: AtomicU64,
    warnings: Mutex<Vec<Warning>>,
}

impl SnapshotStore {
    /// Opens (creating) the snapshot directory under `data_dir`.
    ///
    /// # Errors
    ///
    /// Directory creation failure.
    pub fn open(data_dir: &Path) -> io::Result<SnapshotStore> {
        let dir = data_dir.join("snapshots");
        std::fs::create_dir_all(&dir)?;
        Ok(SnapshotStore {
            dir,
            saves: AtomicU64::new(0),
            save_failures: AtomicU64::new(0),
            rehydrations: AtomicU64::new(0),
            rehydration_failures: AtomicU64::new(0),
            warnings: Mutex::new(Vec::new()),
        })
    }

    /// Snapshots saved successfully.
    pub fn saves(&self) -> u64 {
        self.saves.load(Ordering::Relaxed)
    }

    /// Save attempts that failed (I/O or oversized).
    pub fn save_failures(&self) -> u64 {
        self.save_failures.load(Ordering::Relaxed)
    }

    /// States rehydrated from disk into the cache.
    pub fn rehydrations(&self) -> u64 {
        self.rehydrations.load(Ordering::Relaxed)
    }

    /// Rehydration attempts that found a snapshot but could not use it
    /// (corrupt, version-mismatched, or inconsistent with its circuit).
    pub fn rehydration_failures(&self) -> u64 {
        self.rehydration_failures.load(Ordering::Relaxed)
    }

    /// Structured warnings accumulated (bounded; oldest dropped).
    pub fn warnings(&self) -> Vec<Warning> {
        lock_recover(&self.warnings).clone()
    }

    fn warn(&self, code: &str, subject: String, detail: String, impact: &str) {
        let mut warnings = lock_recover(&self.warnings);
        if warnings.len() >= MAX_WARNINGS {
            warnings.remove(0);
        }
        warnings.push(Warning::new(code, subject, "snapshot", detail, impact));
    }

    fn path_for(&self, key: u64) -> PathBuf {
        self.dir.join(format!("{key:016x}.snap"))
    }

    /// Serializes a retained state to disk (called on eviction and at
    /// drain). Best-effort: failures are counted and warned, never
    /// propagated — losing a snapshot costs a future cold analysis,
    /// not correctness.
    pub fn save(&self, state: &RetainedState) {
        let bytes = {
            let analyzer = lock_recover(&state.analyzer);
            encode(state, &analyzer)
        };
        let result = match bytes {
            Ok(bytes) => self.write_atomic(state.key, &bytes),
            Err(e) => Err(io::Error::other(e)),
        };
        match result {
            Ok(()) => {
                self.saves.fetch_add(1, Ordering::Relaxed);
            }
            Err(e) => {
                self.save_failures.fetch_add(1, Ordering::Relaxed);
                self.warn(
                    "snapshot-save-failed",
                    format!("{:016x}", state.key),
                    e.to_string(),
                    "state not persisted; a restart will cold-analyze on next use",
                );
            }
        }
    }

    fn write_atomic(&self, key: u64, bytes: &[u8]) -> io::Result<()> {
        if bytes.len() > MAX_SNAPSHOT_BYTES {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("snapshot of {} bytes exceeds the cap", bytes.len()),
            ));
        }
        let tmp = self.dir.join(format!("{key:016x}.snap.tmp"));
        std::fs::write(&tmp, bytes)?;
        std::fs::rename(&tmp, self.path_for(key))
    }

    /// Attempts to rehydrate the state for `key` from disk: re-parses
    /// the circuit through `cache`, rebuilds the analyzer from the
    /// persisted base (no cold analysis), validates every key binding,
    /// and returns a cache-ready entry with its resident byte count.
    ///
    /// `None` means "no usable snapshot" — whether absent, corrupt, or
    /// inconsistent (the latter two warn and count a failure). The
    /// caller then answers `unknown-base` exactly as before snapshots
    /// existed.
    pub fn rehydrate(&self, key: u64, cache: &CircuitCache) -> Option<(Arc<RetainedState>, usize)> {
        let path = self.path_for(key);
        let bytes = match std::fs::read(&path) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return None,
            Err(e) => {
                self.rehydration_failures.fetch_add(1, Ordering::Relaxed);
                self.warn(
                    "snapshot-load-failed",
                    format!("{key:016x}"),
                    e.to_string(),
                    "snapshot unreadable; delta answered unknown-base",
                );
                return None;
            }
        };
        match decode_and_rebuild(key, &bytes, cache) {
            Ok(entry) => {
                self.rehydrations.fetch_add(1, Ordering::Relaxed);
                Some(entry)
            }
            Err(detail) => {
                self.rehydration_failures.fetch_add(1, Ordering::Relaxed);
                self.warn(
                    "snapshot-load-failed",
                    format!("{key:016x}"),
                    detail,
                    "snapshot ignored; delta answered unknown-base",
                );
                None
            }
        }
    }
}

// ---- binary encoding ----

struct Enc(Vec<u8>);

impl Enc {
    fn u8(&mut self, v: u8) {
        self.0.push(v);
    }
    fn u32(&mut self, v: u32) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn i64(&mut self, v: i64) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn f64_bits(&mut self, v: f64) {
        self.u64(v.to_bits());
    }
    fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.0.extend_from_slice(s.as_bytes());
    }
}

fn encode(state: &RetainedState, analyzer: &IncrementalAnalyzer) -> Result<Vec<u8>, String> {
    let base = analyzer.export_base();
    let config_json = serde::json::to_string(analyzer.config());
    let mut e = Enc(Vec::new());
    e.0.extend_from_slice(MAGIC);
    e.str(&state.circuit_text);
    e.u64(state.seed);
    e.str(&config_json);
    e.u64(state.circuit_key);
    e.u64(state.key);
    e.str(&state.circuit);
    let n = base.groups.len();
    if n != base.records.len() {
        return Err("export shape mismatch".to_owned());
    }
    e.u32(n as u32);
    for g in &base.groups {
        match g {
            None => e.u8(0),
            Some(d) => {
                e.u8(1);
                let v = d.as_view();
                e.i64(v.origin());
                e.u32(v.probs().len() as u32);
                for &p in v.probs() {
                    e.f64_bits(p);
                }
            }
        }
    }
    for r in &base.records {
        e.u64(r.stats.supergates as u64);
        e.u64(r.stats.stems_conditioned as u64);
        e.u64(r.stats.stems_filtered as u64);
        e.u64(r.stats.hybrid_evaluations as u64);
        e.f64_bits(r.stats.dropped_mass);
        e.u32(r.warnings.len() as u32);
        for w in &r.warnings {
            e.str(&w.code);
            e.str(&w.subject);
            e.str(&w.knob);
            e.str(&w.detail);
            e.str(&w.impact);
        }
    }
    let checksum = fnv1a64(&e.0);
    e.u64(checksum);
    Ok(e.0)
}

struct Dec<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Dec<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        let end = self
            .at
            .checked_add(n)
            .filter(|&end| end <= self.bytes.len())
            .ok_or_else(|| format!("snapshot truncated at byte {}", self.at))?;
        let out = &self.bytes[self.at..end];
        self.at = end;
        Ok(out)
    }
    fn u8(&mut self) -> Result<u8, String> {
        Ok(self.take(1)?[0])
    }
    fn u32(&mut self) -> Result<u32, String> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }
    fn u64(&mut self) -> Result<u64, String> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }
    fn i64(&mut self) -> Result<i64, String> {
        Ok(self.u64()? as i64)
    }
    fn f64_bits(&mut self) -> Result<f64, String> {
        Ok(f64::from_bits(self.u64()?))
    }
    fn str(&mut self) -> Result<String, String> {
        let len = self.u32()? as usize;
        if len > MAX_SNAPSHOT_BYTES {
            return Err(format!("string length {len} exceeds the cap"));
        }
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| "non-UTF-8 string in snapshot".to_owned())
    }
}

fn decode_and_rebuild(
    key: u64,
    bytes: &[u8],
    cache: &CircuitCache,
) -> Result<(Arc<RetainedState>, usize), String> {
    if bytes.len() < MAGIC.len() + 8 {
        return Err("snapshot too short".to_owned());
    }
    if &bytes[..MAGIC.len()] != MAGIC {
        return Err("bad magic / unsupported snapshot version".to_owned());
    }
    let (body, tail) = bytes.split_at(bytes.len() - 8);
    let want = u64::from_le_bytes([
        tail[0], tail[1], tail[2], tail[3], tail[4], tail[5], tail[6], tail[7],
    ]);
    let got = fnv1a64(body);
    if got != want {
        return Err(format!("checksum mismatch ({got:016x} != {want:016x})"));
    }
    let mut d = Dec {
        bytes: body,
        at: MAGIC.len(),
    };
    let circuit_text = d.str()?;
    let seed = d.u64()?;
    let config_json = d.str()?;
    let circuit_key = d.u64()?;
    let state_key = d.u64()?;
    let display_name = d.str()?;
    if state_key != key {
        return Err(format!(
            "snapshot is for key {state_key:016x}, not {key:016x}"
        ));
    }
    let n = d.u32()? as usize;
    // Group payloads are ≥9 bytes each; reject fictitious node counts
    // before allocating.
    if n > body.len() {
        return Err(format!("implausible node count {n}"));
    }
    let mut groups: Vec<Option<DiscreteDist>> = Vec::with_capacity(n);
    for _ in 0..n {
        match d.u8()? {
            0 => groups.push(None),
            1 => {
                let origin = d.i64()?;
                let len = d.u32()? as usize;
                if len * 8 > body.len() {
                    return Err(format!("implausible group length {len}"));
                }
                let mut probs = Vec::with_capacity(len);
                for _ in 0..len {
                    probs.push(d.f64_bits()?);
                }
                let dist = DiscreteDist::try_from_dense(origin, probs)
                    .map_err(|e| format!("bad group probabilities: {e}"))?;
                groups.push(Some(dist));
            }
            tag => return Err(format!("bad group tag {tag}")),
        }
    }
    let mut records = Vec::with_capacity(n);
    for _ in 0..n {
        let mut stats = pep_core::AnalysisStats {
            supergates: d.u64()? as usize,
            stems_conditioned: d.u64()? as usize,
            stems_filtered: d.u64()? as usize,
            hybrid_evaluations: d.u64()? as usize,
            ..Default::default()
        };
        stats.dropped_mass = d.f64_bits()?;
        let n_warnings = d.u32()? as usize;
        if n_warnings > body.len() {
            return Err(format!("implausible warning count {n_warnings}"));
        }
        let mut warnings = Vec::with_capacity(n_warnings);
        for _ in 0..n_warnings {
            let code = d.str()?;
            let subject = d.str()?;
            let knob = d.str()?;
            let detail = d.str()?;
            let impact = d.str()?;
            warnings.push(Warning::new(code, subject, knob, detail, impact));
        }
        records.push(NodeRecordExport { stats, warnings });
    }
    if d.at != body.len() {
        return Err(format!(
            "{} trailing bytes after the last record",
            body.len() - d.at
        ));
    }

    // Rebind to a live circuit and validate every key in the chain —
    // a snapshot must never rehydrate against the wrong netlist.
    let spec = CircuitSpec::from_cache_text(&circuit_text)
        .ok_or_else(|| "unparsable circuit spec in snapshot".to_owned())?;
    let circuit: Arc<CachedCircuit> = cache
        .get_or_parse(&spec, seed)
        .map_err(|e| format!("snapshot circuit no longer parses: {e}"))?;
    if circuit.key != circuit_key {
        return Err(format!(
            "circuit content key changed ({:016x} != {circuit_key:016x})",
            circuit.key
        ));
    }
    let config: AnalysisConfig = serde::json::from_str_as(&config_json)
        .map_err(|e| format!("snapshot config no longer deserializes: {e}"))?;
    if StateCache::key_for(circuit_key, &config) != state_key {
        return Err("config/key binding mismatch".to_owned());
    }
    let base = RetainedBase { groups, records };
    let mut analyzer =
        IncrementalAnalyzer::from_retained_base(&circuit.netlist, &circuit.timing, &config, &base)
            .map_err(|e| format!("retained base rejected: {e}"))?;
    // Prime the base hashes as the retain path does, so the state
    // cache's byte accounting matches a never-evicted state's.
    analyzer.groups_digest();
    let resident = analyzer.resident_bytes();
    Ok((
        Arc::new(RetainedState {
            key: state_key,
            circuit: display_name,
            circuit_text,
            seed,
            circuit_key,
            analyzer: Mutex::new(analyzer),
        }),
        resident,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn retained(seed: u64) -> (Arc<RetainedState>, CircuitCache) {
        let cache = CircuitCache::new(4);
        let spec = CircuitSpec::Sample("fig6".into());
        let circuit = cache.get_or_parse(&spec, seed).expect("sample parses");
        let config = AnalysisConfig::default();
        let analyzer =
            IncrementalAnalyzer::new(&circuit.netlist, &circuit.timing, &config).expect("cold run");
        let key = StateCache::key_for(circuit.key, analyzer.config());
        (
            Arc::new(RetainedState {
                key,
                circuit: "fig6".into(),
                circuit_text: spec.cache_text(),
                seed,
                circuit_key: circuit.key,
                analyzer: Mutex::new(analyzer),
            }),
            cache,
        )
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "pep-snapshot-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("mkdir");
        dir
    }

    #[test]
    fn save_rehydrate_roundtrip_is_bit_identical() {
        let dir = tmp_dir("roundtrip");
        let store = SnapshotStore::open(&dir).expect("open");
        let (state, cache) = retained(1);
        store.save(&state);
        assert_eq!(store.saves(), 1);

        // Rehydrate through a *fresh* circuit cache, as a restarted
        // process would.
        let fresh = CircuitCache::new(4);
        let (back, resident) = store.rehydrate(state.key, &fresh).expect("rehydrates");
        assert!(resident > 0);
        assert_eq!(back.key, state.key);
        assert_eq!(back.circuit, "fig6");
        let original = lock_recover(&state.analyzer);
        let rebuilt = lock_recover(&back.analyzer);
        let a = original.analysis();
        let b = rebuilt.analysis();
        assert_eq!(a.stats(), b.stats());
        for id in original.netlist().node_ids() {
            assert_eq!(
                original.group(id).to_bits(),
                rebuilt.group(id).to_bits(),
                "group mismatch at {id:?}"
            );
        }
        drop((original, rebuilt));
        let _ = cache;
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_snapshot_is_silent_none() {
        let dir = tmp_dir("missing");
        let store = SnapshotStore::open(&dir).expect("open");
        let cache = CircuitCache::new(4);
        assert!(store.rehydrate(0xdead_beef, &cache).is_none());
        assert_eq!(store.rehydration_failures(), 0, "absence is not a failure");
        assert!(store.warnings().is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_snapshot_is_typed_and_ignored() {
        let dir = tmp_dir("corrupt");
        let store = SnapshotStore::open(&dir).expect("open");
        let (state, _cache) = retained(1);
        store.save(&state);
        let path = dir
            .join("snapshots")
            .join(format!("{:016x}.snap", state.key));
        let mut bytes = std::fs::read(&path).expect("read");
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xff;
        std::fs::write(&path, &bytes).expect("write");
        let fresh = CircuitCache::new(4);
        assert!(store.rehydrate(state.key, &fresh).is_none());
        assert_eq!(store.rehydration_failures(), 1);
        let warnings = store.warnings();
        assert_eq!(warnings.len(), 1);
        assert_eq!(warnings[0].code, "snapshot-load-failed");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncated_snapshot_is_typed_and_ignored() {
        let dir = tmp_dir("truncated");
        let store = SnapshotStore::open(&dir).expect("open");
        let (state, _cache) = retained(1);
        store.save(&state);
        let path = dir
            .join("snapshots")
            .join(format!("{:016x}.snap", state.key));
        let bytes = std::fs::read(&path).expect("read");
        std::fs::write(&path, &bytes[..bytes.len() / 3]).expect("write");
        let fresh = CircuitCache::new(4);
        assert!(store.rehydrate(state.key, &fresh).is_none());
        assert_eq!(store.rehydration_failures(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
