//! PDB1 — the versioned binary columnar on-disk repository format.
//!
//! JSON stays the interchange format; PDB1 is the *storage* format: a
//! repository open should cost a header read and a manifest parse, not
//! a full JSON parse + re-intern + re-layout pass. The layout is
//! designed so the measurement data can be consumed in place:
//!
//! ```text
//! offset 0    header        magic "PDB1", version, section table offset
//! offset 32   section table 3 × 32-byte entries {kind, offset, len, crc32}
//! aligned     string table  interned names: u32 count, then (u32 len, bytes)*
//! aligned     manifest      application → experiment → trial records
//! 8-aligned   column pages  per trial: 4 × f64 planes, metric-major
//! ```
//!
//! * Every integer and float is **little-endian**; planes are raw
//!   `f64::to_le_bytes`.
//! * Each trial's page holds four *field planes* (inclusive, exclusive,
//!   calls, subcalls), each a `metrics × events × threads` array in
//!   metric-major order — so a fixed `(metric, field)` pair is one
//!   contiguous row-major `events × threads` matrix.
//! * The column-pages section and every trial page start 8-byte
//!   aligned, and the strict reader rejects a misaligned pages section
//!   as corruption. Decoding itself reads each value with
//!   `f64::from_le_bytes`, so it needs neither the alignment nor a
//!   little-endian host.
//! * Every section carries a CRC32 in the section table; every trial
//!   page additionally carries its own CRC32 in the manifest, so the
//!   mmap path ([`crate::mapped`]) can defer data validation per trial
//!   while still checking the cheap sections eagerly.
//!
//! Three read paths share one parser: [`read_repository`] and
//! [`salvage`] are one walk under the strict and lossy ingest policies
//! (strict — any checksum or structure error fails the load; salvage —
//! reports *which* section is corrupt as typed [`Diagnostic`]s and
//! loads every trial whose page still checks out), and the mapped
//! [`crate::mapped::MappedRepository`] parses strictly but checks each
//! trial's page lazily. All three materialize trials through one
//! decoder.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use crate::formats::{Diagnostic, Ingest, Policy};
use crate::metadata::{MetaValue, Metadata};
use crate::model::{Event, EventId, Measurement, Metric, MetricId, Profile, ThreadId, Trial};
use crate::repo::Repository;
use crate::{DmfError, Result};
use std::collections::HashMap;
use std::sync::Arc;

/// The four magic bytes every PDB1 file starts with.
pub const MAGIC: [u8; 4] = *b"PDB1";
/// Current format version.
pub const VERSION: u32 = 1;

const HEADER_LEN: usize = 32;
const SECTION_ENTRY_LEN: usize = 32;
const SECTION_COUNT: usize = 3;

/// Section kinds, in file order.
const SEC_STRINGS: u32 = 1;
const SEC_MANIFEST: u32 = 2;
const SEC_PAGES: u32 = 3;

fn section_name(kind: u32) -> &'static str {
    match kind {
        SEC_STRINGS => "string table",
        SEC_MANIFEST => "manifest",
        SEC_PAGES => "column pages",
        _ => "unknown",
    }
}

/// One of the four measurement fields stored as a column plane.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Field {
    /// Inclusive value (includes children).
    Inclusive,
    /// Exclusive value (excludes children).
    Exclusive,
    /// Call count.
    Calls,
    /// Child-call count.
    Subcalls,
}

impl Field {
    /// All fields, in plane order.
    pub(crate) const ALL: [Field; 4] = [
        Field::Inclusive,
        Field::Exclusive,
        Field::Calls,
        Field::Subcalls,
    ];

    /// The field's value in a measurement cell.
    pub(crate) fn of(self, m: &Measurement) -> f64 {
        match self {
            Field::Inclusive => m.inclusive,
            Field::Exclusive => m.exclusive,
            Field::Calls => m.calls,
            Field::Subcalls => m.subcalls,
        }
    }
}

// ---------------------------------------------------------------------------
// CRC32 (IEEE 802.3, reflected): a carry-less-multiply fold on x86_64,
// slicing-by-8 everywhere else.
// ---------------------------------------------------------------------------

/// `CRC_TABLES[0]` is the classic byte-at-a-time table; `CRC_TABLES[k]`
/// advances a byte's contribution through `k` further zero bytes, so
/// eight lookups fold eight input bytes per step.
const CRC_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut t = 1;
    while t < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[t - 1][i];
            tables[t][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        t += 1;
    }
    tables
};

/// CRC32 (IEEE) of a byte slice — the checksum used by every PDB1
/// section and trial page, and by every journal frame.
///
/// On an x86_64 CPU with PCLMULQDQ and SSE4.1 (detected once at run
/// time), slices of at least 64 bytes take the carry-less-multiply
/// fold; everything else takes the portable slice-by-8 loop,
/// [`crc32_portable`]. Both return the same value for every input.
pub fn crc32(bytes: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if bytes.len() >= FOLD_MIN
        && std::is_x86_feature_detected!("pclmulqdq")
        && std::is_x86_feature_detected!("sse4.1")
    {
        // SAFETY: `fold::crc32` is safe code compiled for PCLMULQDQ and
        // SSE4.1; the only obligation of calling it is that the CPU
        // executes those instructions, which the two checks above
        // established.
        return unsafe { fold::crc32(bytes) };
    }
    crc32_portable(bytes)
}

/// The shortest slice [`crc32`] folds: the four 16-byte lanes the fold
/// starts from.
const FOLD_MIN: usize = 64;

/// The portable CRC32: slice-by-8 over any input on any CPU. [`crc32`]
/// uses it below 64 bytes and on CPUs without the fold's instructions;
/// it is public so tests and benches reach it on every host.
pub fn crc32_portable(bytes: &[u8]) -> u32 {
    !crc32_update(0xFFFF_FFFF, bytes)
}

/// Advances a raw (uninverted) CRC register over `bytes`, eight bytes
/// per step.
fn crc32_update(mut c: u32, bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let lo = c ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        c = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in words.remainder() {
        c = t[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c
}

/// The byte-at-a-time CRC32 the sliced and folded versions replaced,
/// kept as their differential oracle.
pub fn crc32_bytewise(bytes: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in bytes {
        c = CRC_TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

/// The PCLMULQDQ fold (Gopal et al., "Fast CRC Computation for Generic
/// Polynomials Using PCLMULQDQ Instruction", Intel, 2009), in the
/// bit-reflected form: four 128-bit lanes each absorb the 16 bytes 64
/// bytes ahead of them, the lanes fold into one, the remaining 16-byte
/// blocks fold into it, a Barrett reduction takes the 128-bit remainder
/// to 32 bits, and the last `len % 16` bytes go through the slice-by-8
/// loop. The constants are the paper's bit-reflected powers of `x`
/// modulo `P(x)` (the ones zlib and Linux use) for folding across four
/// lanes (K1, K2), across one lane (K3, K4) and from 128 to 64 bits
/// (K5, K6), plus `P(x)` itself and `μ = ⌊x^64 / P(x)⌋` for the
/// reduction.
#[cfg(target_arch = "x86_64")]
mod fold {
    use std::arch::x86_64::{
        __m128i, _mm_and_si128, _mm_clmulepi64_si128, _mm_cvtsi32_si128, _mm_extract_epi32,
        _mm_set_epi32, _mm_set_epi64x, _mm_srli_si128, _mm_xor_si128,
    };

    const K1: i64 = 0x1_5444_2bd4;
    const K2: i64 = 0x1_c6e4_1596;
    const K3: i64 = 0x1_7519_97d0;
    const K4: i64 = 0x0_ccaa_009e;
    const K5: i64 = 0x1_63cd_6124;
    const K6: i64 = 0x1_db71_0640;
    const P_X: i64 = 0x1_db71_0641;
    const MU: i64 = 0x1_f701_1641;

    /// Loads 16 little-endian bytes into a lane without a pointer, so
    /// the fold needs no `unsafe` of its own.
    #[inline]
    #[target_feature(enable = "sse2")]
    fn lane(b: &[u8]) -> __m128i {
        let lo = u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]]);
        let hi = u64::from_le_bytes([b[8], b[9], b[10], b[11], b[12], b[13], b[14], b[15]]);
        _mm_set_epi64x(hi as i64, lo as i64)
    }

    /// `acc · x^d ⊕ next` for the distance `d` the key pair encodes.
    #[inline]
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    fn fold_into(acc: __m128i, next: __m128i, keys: __m128i) -> __m128i {
        let lo = _mm_clmulepi64_si128(acc, keys, 0x00);
        let hi = _mm_clmulepi64_si128(acc, keys, 0x11);
        _mm_xor_si128(_mm_xor_si128(next, lo), hi)
    }

    /// CRC32 of `bytes`; a slice shorter than the four lanes the fold
    /// starts from (64 bytes) takes the portable loop.
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    pub(super) fn crc32(bytes: &[u8]) -> u32 {
        let Some((first, after)) = bytes.split_first_chunk::<64>() else {
            return super::crc32_portable(bytes);
        };
        let mut blocks = after.chunks_exact(64);
        let mut x3 = _mm_xor_si128(lane(&first[..16]), _mm_cvtsi32_si128(-1));
        let mut x2 = lane(&first[16..32]);
        let mut x1 = lane(&first[32..48]);
        let mut x0 = lane(&first[48..]);
        let k1k2 = _mm_set_epi64x(K2, K1);
        for b in &mut blocks {
            x3 = fold_into(x3, lane(&b[..16]), k1k2);
            x2 = fold_into(x2, lane(&b[16..32]), k1k2);
            x1 = fold_into(x1, lane(&b[32..48]), k1k2);
            x0 = fold_into(x0, lane(&b[48..]), k1k2);
        }

        let k3k4 = _mm_set_epi64x(K4, K3);
        let mut x = fold_into(x3, x2, k3k4);
        x = fold_into(x, x1, k3k4);
        x = fold_into(x, x0, k3k4);
        let mut rest = blocks.remainder().chunks_exact(16);
        for b in &mut rest {
            x = fold_into(x, lane(b), k3k4);
        }

        // 128 → 64 bits, then the Barrett reduction to 32.
        let low32 = _mm_set_epi32(0, 0, 0, -1);
        x = _mm_xor_si128(_mm_clmulepi64_si128(x, k3k4, 0x10), _mm_srli_si128(x, 8));
        let k5k6 = _mm_set_epi64x(K6, K5);
        x = _mm_xor_si128(
            _mm_clmulepi64_si128(_mm_and_si128(x, low32), k5k6, 0x00),
            _mm_srli_si128(x, 4),
        );
        let pu = _mm_set_epi64x(MU, P_X);
        let t1 = _mm_clmulepi64_si128(_mm_and_si128(x, low32), pu, 0x10);
        let t2 = _mm_clmulepi64_si128(_mm_and_si128(t1, low32), pu, 0x00);
        let c = _mm_extract_epi32(_mm_xor_si128(x, t2), 1) as u32;
        !super::crc32_update(c, rest.remainder())
    }
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

pub(crate) fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn pad8(out: &mut Vec<u8>) {
    while !out.len().is_multiple_of(8) {
        out.push(0);
    }
}

#[derive(Default)]
struct Interner {
    ids: HashMap<String, u32>,
    strings: Vec<String>,
}

impl Interner {
    fn intern(&mut self, s: &str) -> u32 {
        if let Some(&id) = self.ids.get(s) {
            return id;
        }
        let id = self.strings.len() as u32;
        self.ids.insert(s.to_string(), id);
        self.strings.push(s.to_string());
        id
    }

    fn id(&self, s: &str) -> u32 {
        self.ids.get(s).copied().unwrap_or(u32::MAX)
    }
}

/// Encodes a repository into PDB1 bytes.
///
/// The encoding is deterministic: the same repository always produces
/// the same bytes (strings are interned in first-encounter order over
/// the name-sorted hierarchy), so re-encoding a decoded file is
/// byte-stable.
pub fn write_repository(repo: &Repository) -> Vec<u8> {
    // Pass 1: intern every name in deterministic walk order.
    let mut interner = Interner::default();
    for_each_trial(repo, |app, exp, trial| {
        interner.intern(app);
        interner.intern(exp);
        interner.intern(&trial.name);
        for m in trial.profile.metrics() {
            interner.intern(&m.name);
        }
        for e in trial.profile.events() {
            interner.intern(&e.name);
            if let Some(k) = &e.kind {
                interner.intern(k);
            }
        }
        for (k, v) in trial.metadata.iter() {
            interner.intern(k);
            if let MetaValue::Str(s) = v {
                interner.intern(s);
            }
        }
    });

    // Pass 2: build the pages and manifest sections side by side. Page
    // offsets are relative to the pages-section start, which itself is
    // 8-aligned in the file, so buffer-relative alignment is absolute
    // alignment.
    let mut pages: Vec<u8> = Vec::new();
    let mut manifest: Vec<u8> = Vec::new();

    let apps: Vec<&str> = repo.application_names().collect();
    put_u32(&mut manifest, apps.len() as u32);
    for app in apps {
        put_u32(&mut manifest, interner.id(app));
        let exps: Vec<&str> = repo
            .application(app)
            .map(|a| a.experiment_names().collect())
            .unwrap_or_default();
        put_u32(&mut manifest, exps.len() as u32);
        for exp in exps {
            put_u32(&mut manifest, interner.id(exp));
            let trials: Vec<&Trial> = repo
                .experiment(app, exp)
                .map(|e| e.trials().collect())
                .unwrap_or_default();
            put_u32(&mut manifest, trials.len() as u32);
            for trial in trials {
                pad8(&mut pages);
                let rel = pages.len() as u64;
                write_planes(&mut pages, &trial.profile);
                let page = &pages[rel as usize..];
                let crc = crc32(page);

                let p = &trial.profile;
                put_u32(&mut manifest, interner.id(&trial.name));
                put_u32(&mut manifest, p.metric_count() as u32);
                put_u32(&mut manifest, p.event_count() as u32);
                put_u32(&mut manifest, p.thread_count() as u32);
                put_u64(&mut manifest, rel);
                put_u32(&mut manifest, crc);
                for m in p.metrics() {
                    put_u32(&mut manifest, interner.id(&m.name));
                    manifest.push(m.derived as u8);
                }
                for e in p.events() {
                    put_u32(&mut manifest, interner.id(&e.name));
                    match &e.kind {
                        Some(k) => {
                            manifest.push(1);
                            put_u32(&mut manifest, interner.id(k));
                        }
                        None => manifest.push(0),
                    }
                }
                for t in p.threads() {
                    put_u32(&mut manifest, t.node);
                    put_u32(&mut manifest, t.context);
                    put_u32(&mut manifest, t.thread);
                }
                put_u32(&mut manifest, trial.metadata.len() as u32);
                for (k, v) in trial.metadata.iter() {
                    put_u32(&mut manifest, interner.id(k));
                    match v {
                        MetaValue::Str(s) => {
                            manifest.push(0);
                            put_u32(&mut manifest, interner.id(s));
                        }
                        MetaValue::Num(n) => {
                            manifest.push(1);
                            put_f64(&mut manifest, *n);
                        }
                        MetaValue::Bool(b) => {
                            manifest.push(2);
                            manifest.push(*b as u8);
                        }
                    }
                }
            }
        }
    }

    // Assemble: header + section table placeholders, then the sections.
    let mut out = vec![0u8; HEADER_LEN + SECTION_COUNT * SECTION_ENTRY_LEN];

    let strings_off = out.len();
    put_u32(&mut out, interner.strings.len() as u32);
    for s in &interner.strings {
        put_u32(&mut out, s.len() as u32);
        out.extend_from_slice(s.as_bytes());
    }
    let strings_len = out.len() - strings_off;
    let strings_crc = crc32(&out[strings_off..]);

    let manifest_off = out.len();
    out.extend_from_slice(&manifest);
    let manifest_crc = crc32(&manifest);

    pad8(&mut out);
    let pages_off = out.len();
    out.extend_from_slice(&pages);
    let pages_crc = crc32(&pages);

    let file_len = out.len() as u64;

    // Section table.
    let entries = [
        (SEC_STRINGS, strings_off, strings_len, strings_crc),
        (SEC_MANIFEST, manifest_off, manifest.len(), manifest_crc),
        (SEC_PAGES, pages_off, pages.len(), pages_crc),
    ];
    for (i, (kind, off, len, crc)) in entries.iter().enumerate() {
        let mut entry = Vec::with_capacity(SECTION_ENTRY_LEN);
        put_u32(&mut entry, *kind);
        put_u32(&mut entry, 0);
        put_u64(&mut entry, *off as u64);
        put_u64(&mut entry, *len as u64);
        put_u32(&mut entry, *crc);
        put_u32(&mut entry, 0);
        let at = HEADER_LEN + i * SECTION_ENTRY_LEN;
        out[at..at + SECTION_ENTRY_LEN].copy_from_slice(&entry);
    }

    // Header.
    let mut header = Vec::with_capacity(HEADER_LEN);
    header.extend_from_slice(&MAGIC);
    put_u32(&mut header, VERSION);
    put_u32(&mut header, SECTION_COUNT as u32);
    put_u32(&mut header, 0);
    put_u64(&mut header, HEADER_LEN as u64);
    put_u64(&mut header, file_len);
    out[..HEADER_LEN].copy_from_slice(&header);

    out
}

fn for_each_trial<'a>(repo: &'a Repository, mut f: impl FnMut(&'a str, &'a str, &'a Trial)) {
    for app in repo.application_names() {
        let Ok(application) = repo.application(app) else {
            continue;
        };
        for exp in application.experiment_names() {
            let Ok(experiment) = repo.experiment(app, exp) else {
                continue;
            };
            for trial in experiment.trials() {
                f(app, exp, trial);
            }
        }
    }
}

/// Writes one trial's column page: four field planes, each metric-major
/// `(metric, event, thread)`.
fn write_planes(out: &mut Vec<u8>, p: &Profile) {
    for field in Field::ALL {
        for m in 0..p.metric_count() {
            for e in 0..p.event_count() {
                for cell in p.column(EventId(e as u32), MetricId(m as u32)) {
                    put_f64(out, field.of(cell));
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------------

fn perr(message: impl Into<String>) -> DmfError {
    DmfError::Parse {
        format: "pdb1",
        line: None,
        message: message.into(),
    }
}

/// Reports a structural error whose salvage diagnostic quotes the
/// whole error text, as `shown` frames it.
fn fault_shown(
    ingest: &mut Ingest,
    cause: DmfError,
    shown: impl FnOnce(String) -> String,
) -> Result<()> {
    let text = shown(cause.to_string());
    ingest.fault(cause, |_| text)
}

struct Rd<'a> {
    b: &'a [u8],
    pos: usize,
}

impl<'a> Rd<'a> {
    fn new(b: &'a [u8]) -> Self {
        Rd { b, pos: 0 }
    }

    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8]> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.b.len())
            .ok_or_else(|| perr(format!("truncated while reading {what}")))?;
        let s = &self.b[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u8(&mut self, what: &str) -> Result<u8> {
        Ok(self.take(1, what)?[0])
    }

    fn u32(&mut self, what: &str) -> Result<u32> {
        let s = self.take(4, what)?;
        Ok(u32::from_le_bytes([s[0], s[1], s[2], s[3]]))
    }

    fn u64(&mut self, what: &str) -> Result<u64> {
        let s = self.take(8, what)?;
        let mut a = [0u8; 8];
        a.copy_from_slice(s);
        Ok(u64::from_le_bytes(a))
    }

    fn f64(&mut self, what: &str) -> Result<f64> {
        Ok(f64::from_bits(self.u64(what)?))
    }
}

#[derive(Debug, Clone)]
pub(crate) struct Header {
    pub version: u32,
    pub section_count: u32,
    pub table_off: u64,
    pub file_len: u64,
}

pub(crate) fn parse_header(bytes: &[u8]) -> Result<Header> {
    if bytes.len() < HEADER_LEN {
        return Err(perr(format!(
            "file too short for a PDB1 header ({} bytes)",
            bytes.len()
        )));
    }
    if bytes[..4] != MAGIC {
        return Err(perr("bad magic: not a PDB1 file"));
    }
    let mut r = Rd::new(&bytes[4..HEADER_LEN]);
    let version = r.u32("version")?;
    if version != VERSION {
        return Err(perr(format!(
            "unsupported PDB1 version {version} (expected {VERSION})"
        )));
    }
    let section_count = r.u32("section count")?;
    let _reserved = r.u32("reserved")?;
    let table_off = r.u64("section table offset")?;
    let file_len = r.u64("file length")?;
    if section_count as usize > 64 {
        return Err(perr(format!("implausible section count {section_count}")));
    }
    Ok(Header {
        version,
        section_count,
        table_off,
        file_len,
    })
}

#[derive(Debug, Clone)]
pub(crate) struct SectionEntry {
    pub kind: u32,
    pub off: u64,
    pub len: u64,
    pub crc: u32,
    /// File offset of this table entry (fault-injection targets it).
    pub entry_off: usize,
}

pub(crate) fn parse_section_table(bytes: &[u8], header: &Header) -> Result<Vec<SectionEntry>> {
    let start = header.table_off as usize;
    let need = header.section_count as usize * SECTION_ENTRY_LEN;
    let end = start
        .checked_add(need)
        .filter(|&e| e <= bytes.len())
        .ok_or_else(|| perr("section table out of bounds"))?;
    let mut out = Vec::with_capacity(header.section_count as usize);
    let mut r = Rd::new(&bytes[start..end]);
    for i in 0..header.section_count as usize {
        let kind = r.u32("section kind")?;
        let _ = r.u32("section reserved")?;
        let off = r.u64("section offset")?;
        let len = r.u64("section length")?;
        let crc = r.u32("section crc")?;
        let _ = r.u32("section reserved")?;
        out.push(SectionEntry {
            kind,
            off,
            len,
            crc,
            entry_off: start + i * SECTION_ENTRY_LEN,
        });
    }
    Ok(out)
}

fn find_section(sections: &[SectionEntry], kind: u32) -> Result<&SectionEntry> {
    sections
        .iter()
        .find(|s| s.kind == kind)
        .ok_or_else(|| perr(format!("missing {} section", section_name(kind))))
}

fn section_bytes<'a>(bytes: &'a [u8], s: &SectionEntry) -> Result<&'a [u8]> {
    let start = s.off as usize;
    let end = start
        .checked_add(s.len as usize)
        .filter(|&e| e <= bytes.len())
        .ok_or_else(|| perr(format!("{} section out of bounds", section_name(s.kind))))?;
    Ok(&bytes[start..end])
}

/// The string table. Each entry is one shared allocation: the manifest
/// hands event names out as clones of it, so every trial that names an
/// event shares the entry.
fn parse_strings(b: &[u8]) -> Result<Vec<Arc<str>>> {
    let mut r = Rd::new(b);
    let count = r.u32("string count")? as usize;
    // Each string needs at least its 4-byte length prefix, so an
    // implausible count is rejected before any allocation.
    if count > b.len() / 4 {
        return Err(perr(format!("implausible string count {count}")));
    }
    let mut out = Vec::with_capacity(count);
    for i in 0..count {
        let len = r.u32("string length")? as usize;
        let raw = r.take(len, "string bytes")?;
        let s =
            std::str::from_utf8(raw).map_err(|_| perr(format!("string {i} is not valid UTF-8")))?;
        out.push(Arc::from(s));
    }
    Ok(out)
}

/// One trial record out of the manifest, with its page location.
#[derive(Debug, Clone)]
pub(crate) struct TrialRec {
    pub app: String,
    pub exp: String,
    pub name: String,
    pub metrics: Vec<Metric>,
    pub events: Vec<Event>,
    pub threads: Vec<ThreadId>,
    pub metadata: Metadata,
    /// Page offset relative to the column-pages section start.
    pub page_off: u64,
    pub page_crc: u32,
}

impl TrialRec {
    /// `app/exp/name`, the diagnostic path.
    pub fn path(&self) -> String {
        format!("{}/{}/{}", self.app, self.exp, self.name)
    }

    /// Cells per plane. The counts are declared by the manifest, so
    /// their product is checked: a wrapped count would let a tiny page
    /// pass as a huge trial.
    pub fn cells(&self) -> Result<usize> {
        self.metrics
            .len()
            .checked_mul(self.events.len())
            .and_then(|n| n.checked_mul(self.threads.len()))
            .ok_or_else(|| perr(format!("trial {}: cell count overflows", self.path())))
    }

    /// Page length in bytes: four f64 planes.
    pub fn page_len(&self) -> Result<usize> {
        self.cells()?
            .checked_mul(4 * 8)
            .ok_or_else(|| perr(format!("trial {}: page length overflows", self.path())))
    }
}

fn parse_manifest(b: &[u8], strings: &[Arc<str>]) -> Result<Vec<TrialRec>> {
    let shared = |id: u32| -> Result<Arc<str>> {
        strings
            .get(id as usize)
            .cloned()
            .ok_or_else(|| perr(format!("string id {id} out of range")))
    };
    let s = |id: u32| shared(id).map(|s| s.to_string());
    let mut r = Rd::new(b);
    let mut out = Vec::new();
    let app_count = r.u32("application count")?;
    for _ in 0..app_count {
        let app = s(r.u32("application name")?)?;
        let exp_count = r.u32("experiment count")?;
        for _ in 0..exp_count {
            let exp = s(r.u32("experiment name")?)?;
            let trial_count = r.u32("trial count")?;
            for _ in 0..trial_count {
                let name = s(r.u32("trial name")?)?;
                let nm = r.u32("metric count")? as usize;
                let ne = r.u32("event count")? as usize;
                let nt = r.u32("thread count")? as usize;
                let page_off = r.u64("page offset")?;
                let page_crc = r.u32("page crc")?;
                // Plausibility before allocation: each metric/event
                // needs ≥ 5 manifest bytes, each thread 12.
                let remaining = b.len() - r.pos;
                if nm * 5 + ne * 5 + nt * 12 > remaining {
                    return Err(perr(format!(
                        "trial {app}/{exp}/{name}: axis counts exceed manifest size"
                    )));
                }
                let mut metrics = Vec::with_capacity(nm);
                for _ in 0..nm {
                    let mname = s(r.u32("metric name")?)?;
                    let derived = r.u8("metric derived flag")? != 0;
                    metrics.push(Metric {
                        name: mname,
                        derived,
                    });
                }
                let mut events = Vec::with_capacity(ne);
                for _ in 0..ne {
                    let ename = shared(r.u32("event name")?)?;
                    let kind = match r.u8("event kind flag")? {
                        0 => None,
                        _ => Some(s(r.u32("event kind")?)?),
                    };
                    events.push(Event { name: ename, kind });
                }
                let mut threads = Vec::with_capacity(nt);
                for _ in 0..nt {
                    threads.push(ThreadId {
                        node: r.u32("thread node")?,
                        context: r.u32("thread context")?,
                        thread: r.u32("thread id")?,
                    });
                }
                let meta_count = r.u32("metadata count")?;
                let mut metadata = Metadata::new();
                for _ in 0..meta_count {
                    let key = s(r.u32("metadata key")?)?;
                    let value = match r.u8("metadata tag")? {
                        0 => MetaValue::Str(s(r.u32("metadata string")?)?),
                        1 => MetaValue::Num(r.f64("metadata number")?),
                        2 => MetaValue::Bool(r.u8("metadata bool")? != 0),
                        t => return Err(perr(format!("unknown metadata tag {t}"))),
                    };
                    metadata.set(&key, value);
                }
                out.push(TrialRec {
                    app: app.clone(),
                    exp: exp.clone(),
                    name,
                    metrics,
                    events,
                    threads,
                    metadata,
                    page_off,
                    page_crc,
                });
            }
        }
    }
    Ok(out)
}

/// The parsed skeleton of a PDB1 file: everything except the column
/// pages, which stay untouched byte ranges until a trial is read.
#[derive(Debug)]
pub(crate) struct Doc {
    pub trials: Vec<TrialRec>,
    /// Column-pages section range within the file (clamped to the file
    /// under the lossy policy).
    pub pages_off: usize,
    pub pages_len: usize,
    /// The pages section's stored CRC32, when the section lies wholly
    /// inside the file.
    pub pages_crc: Option<u32>,
}

impl Doc {
    /// The byte range of one trial's page, bounds-checked against the
    /// pages section.
    pub fn page_bytes<'a>(&self, bytes: &'a [u8], rec: &TrialRec) -> Result<&'a [u8]> {
        let start = (self.pages_off as u64)
            .checked_add(rec.page_off)
            .ok_or_else(|| perr(format!("trial {}: page offset overflow", rec.path())))?
            as usize;
        let end = start
            .checked_add(rec.page_len()?)
            .filter(|&e| e <= self.pages_off + self.pages_len && e <= bytes.len())
            .ok_or_else(|| perr(format!("trial {}: column page out of bounds", rec.path())))?;
        Ok(&bytes[start..end])
    }
}

/// Parses header, section table, string table and manifest.
///
/// A checksum mismatch or a problem that still leaves the file
/// navigable is a fault naming the corrupt section: the strict policy
/// fails on it, the lossy one records it and parses on. An unnavigable
/// container is an error under both.
pub(crate) fn parse_doc(bytes: &[u8], ingest: &mut Ingest) -> Result<Doc> {
    let header = parse_header(bytes)?;
    let sections = parse_section_table(bytes, &header)?;

    if header.file_len != bytes.len() as u64 {
        let cause = perr(format!(
            "file length mismatch: header says {}, found {} (truncated or padded)",
            header.file_len,
            bytes.len()
        ));
        ingest.fault(cause, str::to_owned)?;
    }

    let strings_sec = find_section(&sections, SEC_STRINGS)?;
    let strings_bytes = section_bytes(bytes, strings_sec)?;
    if crc32(strings_bytes) != strings_sec.crc {
        ingest.fault(perr("string table section checksum mismatch"), |c| {
            format!("{c}; parsing anyway")
        })?;
    }
    let strings = parse_strings(strings_bytes)?;

    let manifest_sec = find_section(&sections, SEC_MANIFEST)?;
    let manifest_bytes = section_bytes(bytes, manifest_sec)?;
    if crc32(manifest_bytes) != manifest_sec.crc {
        ingest.fault(perr("manifest section checksum mismatch"), |c| {
            format!("{c}; parsing anyway")
        })?;
    }
    let trials = parse_manifest(manifest_bytes, &strings)?;

    let (pages_off, pages_len, pages_crc) = match find_section(&sections, SEC_PAGES) {
        Ok(sec) => {
            let off = sec.off as usize;
            if !off.is_multiple_of(8) {
                let cause = perr(format!("column pages section misaligned (offset {off})"));
                ingest.fault(cause, str::to_owned)?;
            }
            match section_bytes(bytes, sec) {
                Ok(b) => (off, b.len(), Some(sec.crc)),
                Err(e) => {
                    fault_shown(ingest, e, |e| format!("{e}; clamping to file end"))?;
                    let off = off.min(bytes.len());
                    (off, bytes.len() - off, None)
                }
            }
        }
        Err(e) => {
            fault_shown(ingest, e, |e| e)?;
            (bytes.len(), 0, None)
        }
    };

    Ok(Doc {
        trials,
        pages_off,
        pages_len,
        pages_crc,
    })
}

/// Rebuilds a trial from its manifest record and raw page bytes.
///
/// Reads field by field with `from_le_bytes`, so it works on any
/// alignment and any host endianness. The strict, salvage and mapped
/// read paths all decode trials here.
pub(crate) fn materialize_trial(rec: &TrialRec, page: &[u8]) -> Result<Trial> {
    let nm = rec.metrics.len();
    let ne = rec.events.len();
    let nt = rec.threads.len();
    let cells = rec.cells()?;
    if page.len() != rec.page_len()? {
        return Err(perr(format!(
            "trial {}: page length {} does not match dimensions",
            rec.path(),
            page.len()
        )));
    }
    let f64_at = |i: usize| -> f64 {
        let mut a = [0u8; 8];
        a.copy_from_slice(&page[i * 8..i * 8 + 8]);
        f64::from_le_bytes(a)
    };
    let mut data = vec![Measurement::default(); cells];
    for (f, field) in Field::ALL.iter().enumerate() {
        for m in 0..nm {
            for e in 0..ne {
                for t in 0..nt {
                    let src = ((f * nm + m) * ne + e) * nt + t;
                    let dst = (e * nm + m) * nt + t;
                    let v = f64_at(src);
                    let cell = &mut data[dst];
                    match field {
                        Field::Inclusive => cell.inclusive = v,
                        Field::Exclusive => cell.exclusive = v,
                        Field::Calls => cell.calls = v,
                        Field::Subcalls => cell.subcalls = v,
                    }
                }
            }
        }
    }
    let profile = Profile::from_parts(
        rec.metrics.clone(),
        rec.events.clone(),
        rec.threads.clone(),
        data,
    )?;
    Ok(Trial {
        name: rec.name.clone(),
        profile,
        metadata: rec.metadata.clone(),
    })
}

/// One walk over a PDB1 file. Per-trial page checksums are checked
/// only once some fault has been stepped over: a file whose every
/// section checks out has had each page covered by the pages-section
/// CRC already.
fn read(bytes: &[u8], ingest: &mut Ingest) -> Result<Repository> {
    let doc = parse_doc(bytes, ingest)?;
    if let Some(crc) = doc.pages_crc {
        if crc32(&bytes[doc.pages_off..doc.pages_off + doc.pages_len]) != crc {
            ingest.fault(perr("column pages section checksum mismatch"), |c| {
                format!("{c}; validating per-trial pages")
            })?;
        }
    }
    let verify_pages = !ingest.is_clean();
    let mut repo = Repository::new();
    for rec in &doc.trials {
        let page = match doc.page_bytes(bytes, rec) {
            Ok(page) => page,
            Err(e) => {
                fault_shown(ingest, e, |e| e)?;
                continue;
            }
        };
        if verify_pages && crc32(page) != rec.page_crc {
            let cause = perr(format!("{}: column page checksum mismatch", rec.path()));
            ingest.fault(cause, str::to_owned)?;
            continue;
        }
        match materialize_trial(rec, page) {
            Ok(trial) => repo.upsert_trial(&rec.app, &rec.exp, trial),
            Err(e) => fault_shown(ingest, e, |e| format!("{}: {e}", rec.path()))?,
        }
    }
    Ok(repo)
}

/// Decodes a PDB1 file strictly: any checksum mismatch, truncation or
/// structural problem fails the load.
pub fn read_repository(bytes: &[u8]) -> Result<Repository> {
    read(bytes, &mut Ingest::new("pdb1", Policy::Strict))
}

/// Decodes as much of a possibly corrupt PDB1 file as possible.
///
/// Section-level corruption is reported as a [`Diagnostic`] naming the
/// section ("string table", "manifest", "column pages"); trials whose
/// own page checksum still verifies are loaded, the rest are dropped
/// with an `app/exp/name: cause` diagnostic. Fails only when the file
/// cannot be navigated at all (bad magic, unreadable section table,
/// unreadable string table or manifest).
pub fn salvage(bytes: &[u8]) -> Result<(Repository, Vec<Diagnostic>)> {
    let mut ingest = Ingest::new("pdb1", Policy::Lossy);
    let repo = read(bytes, &mut ingest)?;
    Ok((repo, ingest.diagnostics))
}

// ---------------------------------------------------------------------------
// Inspection
// ---------------------------------------------------------------------------

/// One section's health in an [`InspectReport`].
#[derive(Debug, Clone)]
pub struct SectionReport {
    /// Section name ("string table", "manifest", "column pages").
    pub name: &'static str,
    /// File offset.
    pub offset: u64,
    /// Length in bytes.
    pub len: u64,
    /// The CRC32 stored in the section table.
    pub crc_stored: u32,
    /// Whether the section's bytes match the stored CRC (`None` when
    /// the section lies outside the file).
    pub crc_ok: Option<bool>,
}

/// Structural summary of a PDB1 file, for `repo inspect`.
#[derive(Debug, Clone)]
pub struct InspectReport {
    /// Format version.
    pub version: u32,
    /// File length claimed by the header.
    pub declared_len: u64,
    /// Actual byte length.
    pub actual_len: u64,
    /// Interned string count.
    pub strings: usize,
    /// Section health, in table order.
    pub sections: Vec<SectionReport>,
    /// Total trial records in the manifest.
    pub trials: usize,
    /// Trials whose page checksum verifies.
    pub pages_ok: usize,
    /// Trials whose page is out of bounds or fails its checksum.
    pub pages_bad: usize,
}

/// Inspects a PDB1 file: header, per-section checksum health, trial and
/// page counts. Tolerates checksum mismatches (they are what it
/// reports) but requires a navigable header, section table, string
/// table and manifest.
pub fn inspect(bytes: &[u8]) -> Result<InspectReport> {
    let header = parse_header(bytes)?;
    let sections = parse_section_table(bytes, &header)?;
    let reports: Vec<SectionReport> = sections
        .iter()
        .map(|s| SectionReport {
            name: section_name(s.kind),
            offset: s.off,
            len: s.len,
            crc_stored: s.crc,
            crc_ok: section_bytes(bytes, s).ok().map(|b| crc32(b) == s.crc),
        })
        .collect();
    let doc = parse_doc(bytes, &mut Ingest::new("pdb1", Policy::Lossy))?;
    let mut pages_ok = 0;
    let mut pages_bad = 0;
    for rec in &doc.trials {
        match doc.page_bytes(bytes, rec) {
            Ok(p) if crc32(p) == rec.page_crc => pages_ok += 1,
            _ => pages_bad += 1,
        }
    }
    let strings_sec = find_section(&sections, SEC_STRINGS)?;
    let strings = parse_strings(section_bytes(bytes, strings_sec)?)?.len();
    Ok(InspectReport {
        version: header.version,
        declared_len: header.file_len,
        actual_len: bytes.len() as u64,
        strings,
        sections: reports,
        trials: doc.trials.len(),
        pages_ok,
        pages_bad,
    })
}

// ---------------------------------------------------------------------------
// Fault-injection support (the `faultsim` crate)
// ---------------------------------------------------------------------------

/// Fault-injection support: overwrites the magic bytes so the file no
/// longer identifies as PDB1. Returns a description, or `None` when the
/// buffer is too short.
pub fn corrupt_magic(bytes: &mut [u8], garbage: [u8; 4]) -> Option<String> {
    if bytes.len() < 4 || garbage == MAGIC {
        return None;
    }
    bytes[..4].copy_from_slice(&garbage);
    Some(format!("magic overwritten with {garbage:?}"))
}

/// Fault-injection support: truncates the file inside section
/// `section_index` (mod the section count) at fraction `frac` of the
/// section's span — the mid-write crash shape. Returns `None` when the
/// file is not navigable PDB1.
pub fn truncate_in_section(bytes: &mut Vec<u8>, section_index: usize, frac: f64) -> Option<String> {
    let header = parse_header(bytes).ok()?;
    let sections = parse_section_table(bytes, &header).ok()?;
    if sections.is_empty() {
        return None;
    }
    let s = &sections[section_index % sections.len()];
    if s.len == 0 {
        return None;
    }
    let span = s.len as f64;
    let cut = s.off + (span * frac.clamp(0.0, 0.999)) as u64;
    let cut = (cut as usize).min(bytes.len().saturating_sub(1));
    if cut >= bytes.len() {
        return None;
    }
    let name = section_name(s.kind);
    bytes.truncate(cut);
    Some(format!("truncated inside {name} section at byte {cut}"))
}

/// Fault-injection support: flips one bit of a section's *stored* CRC32
/// in the section table, so the data no longer matches its checksum.
pub fn flip_section_checksum(bytes: &mut [u8], section_index: usize, bit: u32) -> Option<String> {
    let header = parse_header(bytes).ok()?;
    let sections = parse_section_table(bytes, &header).ok()?;
    if sections.is_empty() {
        return None;
    }
    let s = &sections[section_index % sections.len()];
    let crc_field = s.entry_off + 24 + (bit as usize / 8) % 4;
    if crc_field >= bytes.len() {
        return None;
    }
    bytes[crc_field] ^= 1 << (bit % 8);
    Some(format!(
        "flipped checksum bit {bit} of {} section",
        section_name(s.kind)
    ))
}

/// Fault-injection support: shifts the column-pages section offset by
/// `delta` bytes (1..=7 breaks the 8-byte alignment guarantee), the
/// shape a corrupted section table exhibits.
pub fn misalign_pages_offset(bytes: &mut [u8], delta: u64) -> Option<String> {
    let header = parse_header(bytes).ok()?;
    let sections = parse_section_table(bytes, &header).ok()?;
    let s = sections.iter().find(|s| s.kind == SEC_PAGES)?;
    let new_off = s.off.checked_add(delta)?;
    let at = s.entry_off + 8;
    if at + 8 > bytes.len() {
        return None;
    }
    bytes[at..at + 8].copy_from_slice(&new_off.to_le_bytes());
    Some(format!(
        "column pages offset shifted by {delta} (now {new_off})"
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::TrialBuilder;

    fn trial(name: &str, threads: usize, with_kind: bool) -> Trial {
        let mut b = TrialBuilder::with_flat_threads(name, threads);
        let time = b.metric("TIME");
        let cyc = b.metric("CPU_CYCLES");
        for (i, ename) in ["main", "main => compute", "main => exchange"]
            .iter()
            .enumerate()
        {
            let e = if with_kind && i > 0 {
                b.event_with_kind(ename, "loop")
            } else {
                b.event(ename)
            };
            for t in 0..threads {
                b.set(e, time, t, Measurement::leaf(10.0 + (t + i) as f64));
                b.set(e, cyc, t, Measurement::leaf(1e6 + t as f64));
            }
        }
        b.meta("threads", threads);
        b.meta("machine", "Altix 300");
        b.meta("optimized", true);
        b.build()
    }

    fn sample_repo() -> Repository {
        let mut repo = Repository::new();
        repo.add_trial("app", "exp", trial("t1", 4, false)).unwrap();
        repo.add_trial("app", "exp", trial("t2", 2, true)).unwrap();
        repo.add_trial("other", "scaling", trial("1_8", 8, false))
            .unwrap();
        repo
    }

    #[test]
    fn crc32_matches_known_vector() {
        // The canonical IEEE test vector.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// Seeded xorshift bytes.
    fn noise(seed: u64, len: usize) -> Vec<u8> {
        let mut s = seed | 1;
        (0..len)
            .map(|_| {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                s as u8
            })
            .collect()
    }

    #[test]
    fn fold_and_portable_crc32_match_bytewise_at_every_length_and_offset() {
        let buf = noise(0x00c0_ffee, 1024 + 16);
        for start in 0..16 {
            for len in 0..=1024 {
                let slice = &buf[start..start + len];
                let want = crc32_bytewise(slice);
                assert_eq!(
                    crc32_portable(slice),
                    want,
                    "portable, len {len} at {start}"
                );
                assert_eq!(crc32(slice), want, "dispatched, len {len} at {start}");
                #[cfg(target_arch = "x86_64")]
                if std::is_x86_feature_detected!("pclmulqdq")
                    && std::is_x86_feature_detected!("sse4.1")
                {
                    // SAFETY: the CPU has both features (checked above).
                    let folded = unsafe { fold::crc32(slice) };
                    assert_eq!(folded, want, "fold, len {len} at {start}");
                }
            }
        }
    }

    proptest::proptest! {
        #[test]
        fn sliced_crc32_matches_bytewise_oracle(
            seed in 0u64..=u64::MAX,
            len in 0usize..=4099,
            start in 0usize..8,
        ) {
            let mut s = seed | 1;
            let buf: Vec<u8> = (0..start + len)
                .map(|_| {
                    s ^= s << 13;
                    s ^= s >> 7;
                    s ^= s << 17;
                    s as u8
                })
                .collect();
            let slice = &buf[start..];
            proptest::prop_assert_eq!(crc32(slice), crc32_bytewise(slice));
            proptest::prop_assert_eq!(crc32_portable(slice), crc32_bytewise(slice));
        }
    }

    #[test]
    fn roundtrip_preserves_repository() {
        let repo = sample_repo();
        let bytes = write_repository(&repo);
        assert_eq!(&bytes[..4], &MAGIC);
        let back = read_repository(&bytes).unwrap();
        assert_eq!(repo, back);
    }

    #[test]
    fn empty_repository_roundtrips() {
        let repo = Repository::new();
        let bytes = write_repository(&repo);
        let back = read_repository(&bytes).unwrap();
        assert_eq!(repo, back);
        assert_eq!(back.trial_count(), 0);
    }

    #[test]
    fn reencode_is_byte_stable() {
        let repo = sample_repo();
        let bytes = write_repository(&repo);
        let again = write_repository(&read_repository(&bytes).unwrap());
        assert_eq!(bytes, again);
    }

    #[test]
    fn pages_are_eight_byte_aligned() {
        let repo = sample_repo();
        let bytes = write_repository(&repo);
        let doc = parse_doc(&bytes, &mut Ingest::new("pdb1", Policy::Strict)).unwrap();
        assert_eq!(doc.pages_off % 8, 0);
        for rec in &doc.trials {
            assert_eq!(rec.page_off % 8, 0, "trial {} misaligned", rec.path());
        }
    }

    #[test]
    fn declared_counts_whose_page_length_overflows_are_a_parse_error() {
        // 2^19 metrics × 2^19 events × 2^21 threads = 2^59 cells, whose
        // four f64 planes (2^64 bytes) wrap `usize` to a zero-length
        // page that would pass the bounds check. The names are empty,
        // so the axes cost only their 64 MB of fixed-size entries.
        let bytes = write_repository(&sample_repo());
        let doc = parse_doc(&bytes, &mut Ingest::new("pdb1", Policy::Strict)).unwrap();
        let mut rec = doc.trials[0].clone();
        let metric = Metric {
            name: String::new(),
            derived: false,
        };
        let event = Event::new("");
        let thread = ThreadId {
            node: 0,
            context: 0,
            thread: 0,
        };
        rec.metrics = vec![metric; 1 << 19];
        rec.events = vec![event; 1 << 19];
        rec.threads = vec![thread; 1 << 21];
        let is_overflow = |r: Result<()>| matches!(r, Err(DmfError::Parse { ref message, .. }) if message.contains("overflows"));
        assert!(is_overflow(doc.page_bytes(&bytes, &rec).map(drop)));
        assert!(is_overflow(materialize_trial(&rec, &[]).map(drop)));
    }

    #[test]
    fn nan_cells_survive_binary_roundtrip() {
        let mut repo = Repository::new();
        let mut t = trial("nan", 2, false);
        let e = t.profile.event_id("main").unwrap();
        let m = t.profile.metric_id("TIME").unwrap();
        t.profile.get_mut(e, m, 0).unwrap().exclusive = f64::NAN;
        repo.add_trial("a", "e", t).unwrap();
        let back = read_repository(&write_repository(&repo)).unwrap();
        let cell = back
            .trial("a", "e", "nan")
            .unwrap()
            .profile
            .get(e, m, 0)
            .unwrap();
        assert!(cell.exclusive.is_nan());
    }

    #[test]
    fn bad_magic_is_typed_error() {
        let mut bytes = write_repository(&sample_repo());
        corrupt_magic(&mut bytes, *b"XXXX").unwrap();
        let err = read_repository(&bytes).unwrap_err();
        assert!(err.to_string().contains("magic"), "{err}");
        assert!(salvage(&bytes).is_err());
    }

    #[test]
    fn flipped_strings_checksum_salvages_with_section_diagnostic() {
        let mut bytes = write_repository(&sample_repo());
        flip_section_checksum(&mut bytes, 0, 3).unwrap();
        assert!(read_repository(&bytes).is_err());
        let (repo, diags) = salvage(&bytes).unwrap();
        // Data untouched: everything loads, the diagnostic names the
        // corrupt section.
        assert_eq!(repo.trial_count(), 3);
        assert!(
            diags.iter().any(|d| d.message.contains("string table")),
            "{diags:?}"
        );
    }

    #[test]
    fn flipped_pages_checksum_salvages_via_per_trial_crcs() {
        let mut bytes = write_repository(&sample_repo());
        flip_section_checksum(&mut bytes, 2, 17).unwrap();
        assert!(read_repository(&bytes).is_err());
        let (repo, diags) = salvage(&bytes).unwrap();
        assert_eq!(repo.trial_count(), 3);
        assert!(
            diags.iter().any(|d| d.message.contains("column pages")),
            "{diags:?}"
        );
    }

    #[test]
    fn truncation_in_pages_drops_tail_trials_keeps_head() {
        let repo = sample_repo();
        let mut bytes = write_repository(&repo);
        // Cut deep into the pages section: early trials survive.
        truncate_in_section(&mut bytes, 2, 0.9).unwrap();
        assert!(read_repository(&bytes).is_err());
        let (salvaged, diags) = salvage(&bytes).unwrap();
        assert!(salvaged.trial_count() >= 1, "head trials must survive");
        assert!(salvaged.trial_count() < 3, "tail trial must be dropped");
        assert!(!diags.is_empty());
        // Dropped-trial diagnostics carry the trial path.
        assert!(
            diags
                .iter()
                .any(|d| d.message.contains('/') && d.format == "pdb1"),
            "{diags:?}"
        );
    }

    #[test]
    fn misaligned_pages_degrades_to_diagnostics_not_panic() {
        let mut bytes = write_repository(&sample_repo());
        misalign_pages_offset(&mut bytes, 3).unwrap();
        assert!(read_repository(&bytes).is_err());
        let (repo, diags) = salvage(&bytes).unwrap();
        // Every page now reads shifted garbage; nothing verifies.
        assert_eq!(repo.trial_count(), 0);
        assert!(
            diags.iter().any(|d| d.message.contains("misaligned")),
            "{diags:?}"
        );
    }

    #[test]
    fn corrupted_page_byte_drops_only_that_trial() {
        let repo = sample_repo();
        let mut bytes = write_repository(&repo);
        let doc = parse_doc(&bytes, &mut Ingest::new("pdb1", Policy::Strict)).unwrap();
        // Flip one byte inside the *first* trial's page.
        let rec = &doc.trials[0];
        let at = doc.pages_off + rec.page_off as usize + 5;
        bytes[at] ^= 0x40;
        let (salvaged, diags) = salvage(&bytes).unwrap();
        assert_eq!(salvaged.trial_count(), 2);
        assert!(
            diags
                .iter()
                .any(|d| d.message.contains(&rec.path()) && d.message.contains("checksum")),
            "{diags:?}"
        );
    }

    #[test]
    fn inspect_reports_sections_and_page_health() {
        let repo = sample_repo();
        let bytes = write_repository(&repo);
        let report = inspect(&bytes).unwrap();
        assert_eq!(report.version, VERSION);
        assert_eq!(report.trials, 3);
        assert_eq!(report.pages_ok, 3);
        assert_eq!(report.pages_bad, 0);
        assert_eq!(report.sections.len(), 3);
        assert!(report.sections.iter().all(|s| s.crc_ok == Some(true)));

        let mut corrupt = bytes.clone();
        flip_section_checksum(&mut corrupt, 1, 0).unwrap();
        let report = inspect(&corrupt).unwrap();
        assert!(report
            .sections
            .iter()
            .any(|s| s.name == "manifest" && s.crc_ok == Some(false)));
    }

    #[test]
    fn garbage_is_not_pdb1() {
        assert!(read_repository(b"not a pdb1 file at all").is_err());
        assert!(salvage(&[0u8; 64]).is_err());
        assert!(inspect(b"PDB1").is_err()); // magic alone, no header
    }
}
