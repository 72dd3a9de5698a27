//! Write-ahead journal for streaming chunk ingestion.
//!
//! A process crash used to lose every in-flight [`StreamingTrial`]: the
//! growing trial lives only in memory, so chunks a client was told were
//! applied simply vanished. This module is the durability half of the
//! streaming story. Before a chunk is acknowledged it is appended to a
//! per-shard journal; after a crash the journal is replayed and every
//! acknowledged chunk is folded back into a rebuilt stream, so the
//! recovered analysis state is byte-identical to an uninterrupted run.
//!
//! ## Record framing
//!
//! The file starts with an 8-byte header (`PWAL` magic + u32 LE
//! version). Each record is a crc32-framed frame:
//!
//! ```text
//! offset 0   u32 LE  payload length
//! offset 4   u32 LE  crc32 of the payload (same polynomial as PDB1)
//! offset 8   payload: one binary WalRecord
//! ```
//!
//! The payload is little-endian throughout; a string is a u32 byte
//! length followed by that many UTF-8 bytes:
//!
//! ```text
//! u8   tag                 0 = Chunk, 1 = Retire
//! str  app, experiment, trial
//! -- Chunk only --
//! u64  seq
//! u32  threads
//! u32  delta count, then per delta:
//!        str  metric
//!        str  event
//!        u8   event_kind flag (0 = None, 1 = Some), then str if 1
//!        u32  cell count, then per cell:
//!               u32 thread, f64 inclusive, exclusive, calls, subcalls
//! ```
//!
//! Floats are stored as their raw bits, so every value — NaN payloads,
//! infinities, `-0.0`, subnormals — replays bit-identically. A payload
//! that passes its checksum but does not decode (unknown tag, invalid
//! UTF-8, a count that overruns the payload, trailing bytes) is treated
//! exactly like a torn frame.
//!
//! A crash mid-append leaves a *torn tail*: a frame whose length field
//! points past EOF, or whose checksum no longer matches. Replay treats
//! the valid prefix as the truth and discards the tail — a torn record
//! was by definition never acknowledged, so the client will retry it.
//! [`Journal::open`] truncates the tail away before appending again, so
//! one crash can never poison records written after the restart.
//!
//! ## Rotation
//!
//! Retired streams (a full-trial upsert shadowing the path, or an
//! explicitly finished trial) append a [`WalRecord::Retire`] tombstone.
//! [`Journal::compact`] rewrites the journal without retired streams'
//! records using the same tmp+fsync+rename discipline as
//! [`crate::Repository::save_as`], so the journal stays one complete
//! document at every instant and never grows without bound.
//!
//! ## Fsync policy
//!
//! [`FsyncPolicy::Always`] makes every acknowledged chunk durable
//! against power loss; [`FsyncPolicy::EveryN`] amortises the fsync over
//! a window (a crash may lose up to N-1 *acknowledged* chunks to an OS
//! crash, but never to a process crash); [`FsyncPolicy::Never`] leaves
//! flushing to the OS — the fast path for tests and the CI smoke lane,
//! still safe against process kills because the file write itself
//! happens before the ack.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use crate::pdb1::{crc32, put_f64, put_u32, put_u64};
use crate::streaming::{ChunkBatch, ColumnDelta};
use crate::{DmfError, Measurement, Result};
use std::io::Write;
use std::path::{Path, PathBuf};

#[cfg(doc)]
use crate::streaming::StreamingTrial;

/// Journal file magic.
pub const WAL_MAGIC: [u8; 4] = *b"PWAL";
/// Journal format version (2: binary record payloads).
pub const WAL_VERSION: u32 = 2;
/// Header length in bytes (magic + version).
pub const WAL_HEADER_LEN: usize = 8;
/// Frame header length in bytes (payload length + crc32).
pub const FRAME_HEADER_LEN: usize = 8;

/// One journaled event on a shard.
#[derive(Debug, Clone, PartialEq)]
pub enum WalRecord {
    /// A chunk acknowledged into a streamed trial.
    Chunk {
        /// Tenant application.
        app: String,
        /// Tenant experiment.
        experiment: String,
        /// Trial the stream builds.
        trial: String,
        /// The acknowledged batch, verbatim.
        batch: ChunkBatch,
    },
    /// The stream at this path was retired (shadowed by a full-trial
    /// upsert, or finished). Replay drops its accumulated chunks.
    Retire {
        /// Tenant application.
        app: String,
        /// Tenant experiment.
        experiment: String,
        /// Trial whose stream was retired.
        trial: String,
    },
}

impl WalRecord {
    /// The `(app, experiment, trial)` path this record addresses.
    pub fn path(&self) -> (&str, &str, &str) {
        match self {
            WalRecord::Chunk {
                app,
                experiment,
                trial,
                ..
            }
            | WalRecord::Retire {
                app,
                experiment,
                trial,
            } => (app, experiment, trial),
        }
    }
}

/// A borrowed view of a [`WalRecord`], the form the encoder reads. A
/// caller that holds a record's parts journals them through this view
/// without cloning them into an owned record first; the frame is the
/// same either way.
#[derive(Debug, Clone, Copy)]
pub enum RecordRef<'a> {
    /// See [`WalRecord::Chunk`].
    Chunk {
        /// Tenant application.
        app: &'a str,
        /// Tenant experiment.
        experiment: &'a str,
        /// Trial the stream builds.
        trial: &'a str,
        /// The acknowledged batch.
        batch: &'a ChunkBatch,
    },
    /// See [`WalRecord::Retire`].
    Retire {
        /// Tenant application.
        app: &'a str,
        /// Tenant experiment.
        experiment: &'a str,
        /// Trial whose stream was retired.
        trial: &'a str,
    },
}

impl<'a> From<&'a WalRecord> for RecordRef<'a> {
    fn from(record: &'a WalRecord) -> Self {
        match record {
            WalRecord::Chunk {
                app,
                experiment,
                trial,
                batch,
            } => RecordRef::Chunk {
                app,
                experiment,
                trial,
                batch,
            },
            WalRecord::Retire {
                app,
                experiment,
                trial,
            } => RecordRef::Retire {
                app,
                experiment,
                trial,
            },
        }
    }
}

/// When the journal fsyncs appended records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// Fsync after every append: an acknowledged chunk survives power
    /// loss.
    Always,
    /// Fsync after every N appends: amortised durability (a crash of
    /// the whole OS may lose up to N-1 acknowledged chunks; a process
    /// crash loses none).
    EveryN(u32),
    /// Never fsync explicitly — the OS flushes when it pleases. Safe
    /// against process kills, fastest; the CI smoke lane uses it.
    Never,
}

/// What a journal replay recovered.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct WalReplay {
    /// Every intact record in append order.
    pub records: Vec<WalRecord>,
    /// Bytes discarded at the tail (a torn append, or trailing rot).
    pub torn_bytes: usize,
    /// Why the tail was discarded, when it was.
    pub torn_reason: Option<String>,
}

/// A stream's identity: `(app, experiment, trial)`.
pub type StreamKey = (String, String, String);

impl WalReplay {
    /// Folds the record sequence into the set of live streams: chunks
    /// grouped per path in arrival order, with retired paths removed.
    /// This is exactly the state a shard rebuilds on recovery.
    pub fn live_streams(&self) -> Vec<(StreamKey, Vec<&ChunkBatch>)> {
        let mut order: Vec<StreamKey> = Vec::new();
        let mut by_path: std::collections::HashMap<StreamKey, Vec<&ChunkBatch>> =
            std::collections::HashMap::new();
        for rec in &self.records {
            let (a, e, t) = rec.path();
            let key = (a.to_string(), e.to_string(), t.to_string());
            match rec {
                WalRecord::Chunk { batch, .. } => {
                    if !by_path.contains_key(&key) {
                        order.push(key.clone());
                    }
                    by_path.entry(key).or_default().push(batch);
                }
                WalRecord::Retire { .. } => {
                    by_path.remove(&key);
                    order.retain(|k| *k != key);
                }
            }
        }
        order
            .into_iter()
            .filter_map(|key| {
                let batches = by_path.remove(&key)?;
                Some((key, batches))
            })
            .collect()
    }
}

/// Outcome of a [`Journal::compact`] rewrite.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompactStats {
    /// Records in the journal before the rewrite.
    pub before: usize,
    /// Records surviving the rewrite.
    pub after: usize,
}

/// An append-only, crc32-framed, crash-recoverable journal file.
pub struct Journal {
    path: PathBuf,
    file: std::fs::File,
    policy: FsyncPolicy,
    unsynced: u32,
    appended: u64,
    retired: u64,
    /// Encode buffer reused by every append.
    frame: Vec<u8>,
}

impl std::fmt::Debug for Journal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Journal")
            .field("path", &self.path)
            .field("policy", &self.policy)
            .field("appended", &self.appended)
            .finish()
    }
}

const TAG_CHUNK: u8 = 0;
const TAG_RETIRE: u8 = 1;
/// Encoded bytes of one cell: thread + four f64 fields.
const CELL_LEN: usize = 4 + 4 * 8;
/// Smallest encoded delta: two empty strings, the kind flag, a count.
const MIN_DELTA_LEN: usize = 4 + 4 + 1 + 4;

fn wal_error(message: String) -> DmfError {
    DmfError::Parse {
        format: "wal",
        line: None,
        message,
    }
}

fn put_len(out: &mut Vec<u8>, len: usize, what: &str) -> Result<()> {
    let len = u32::try_from(len)
        .map_err(|_| wal_error(format!("{what} of {len} exceeds the u32 length field")))?;
    put_u32(out, len);
    Ok(())
}

fn put_str(out: &mut Vec<u8>, s: &str) -> Result<()> {
    put_len(out, s.len(), "string length")?;
    out.extend_from_slice(s.as_bytes());
    Ok(())
}

fn encode_payload(out: &mut Vec<u8>, record: RecordRef<'_>) -> Result<()> {
    let (tag, app, experiment, trial, batch) = match record {
        RecordRef::Chunk {
            app,
            experiment,
            trial,
            batch,
        } => (TAG_CHUNK, app, experiment, trial, Some(batch)),
        RecordRef::Retire {
            app,
            experiment,
            trial,
        } => (TAG_RETIRE, app, experiment, trial, None),
    };
    out.push(tag);
    put_str(out, app)?;
    put_str(out, experiment)?;
    put_str(out, trial)?;
    if let Some(batch) = batch {
        put_u64(out, batch.seq);
        put_u32(out, batch.threads);
        put_len(out, batch.deltas.len(), "delta count")?;
        for d in &batch.deltas {
            put_str(out, &d.metric)?;
            put_str(out, &d.event)?;
            match &d.event_kind {
                None => out.push(0),
                Some(kind) => {
                    out.push(1);
                    put_str(out, kind)?;
                }
            }
            put_len(out, d.cells.len(), "cell count")?;
            for (thread, m) in &d.cells {
                put_u32(out, *thread);
                put_f64(out, m.inclusive);
                put_f64(out, m.exclusive);
                put_f64(out, m.calls);
                put_f64(out, m.subcalls);
            }
        }
    }
    Ok(())
}

/// Encodes one framed record into `frame` (cleared first), so an
/// appending journal reuses one buffer across records.
fn encode_frame_into(frame: &mut Vec<u8>, record: RecordRef<'_>) -> Result<()> {
    frame.clear();
    frame.extend_from_slice(&[0; FRAME_HEADER_LEN]);
    encode_payload(frame, record)?;
    let payload = &frame[FRAME_HEADER_LEN..];
    let len = u32::try_from(payload.len()).map_err(|_| {
        wal_error(format!(
            "record of {} bytes exceeds the u32 frame length",
            payload.len()
        ))
    })?;
    let crc = crc32(payload);
    frame[..4].copy_from_slice(&len.to_le_bytes());
    frame[4..FRAME_HEADER_LEN].copy_from_slice(&crc.to_le_bytes());
    Ok(())
}

fn encode_frame(record: RecordRef<'_>) -> Result<Vec<u8>> {
    let mut frame = Vec::new();
    encode_frame_into(&mut frame, record)?;
    Ok(frame)
}

/// A payload decode result; the error says why the frame is torn.
type Decode<T> = std::result::Result<T, &'static str>;

/// Bounds-checked cursor over one checksummed payload. Every read
/// fails (never panics) when the payload is shorter than it claims.
struct PayloadReader<'a> {
    bytes: &'a [u8],
}

impl<'a> PayloadReader<'a> {
    fn take(&mut self, n: usize) -> Decode<&'a [u8]> {
        if n > self.bytes.len() {
            return Err("field runs past the payload");
        }
        let (head, rest) = self.bytes.split_at(n);
        self.bytes = rest;
        Ok(head)
    }

    fn array<const N: usize>(&mut self) -> Decode<[u8; N]> {
        let mut out = [0u8; N];
        out.copy_from_slice(self.take(N)?);
        Ok(out)
    }

    fn u8(&mut self) -> Decode<u8> {
        Ok(self.array::<1>()?[0])
    }

    fn u32(&mut self) -> Decode<u32> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    fn u64(&mut self) -> Decode<u64> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    fn f64(&mut self) -> Decode<f64> {
        Ok(f64::from_le_bytes(self.array()?))
    }

    fn string(&mut self) -> Decode<String> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        std::str::from_utf8(bytes)
            .map(str::to_owned)
            .map_err(|_| "invalid UTF-8 in a string")
    }

    /// Reads an element count and a capacity for it that the remaining
    /// bytes can actually fill — a corrupt count never drives an
    /// allocation.
    fn count(&mut self, min_item_len: usize) -> Decode<(usize, usize)> {
        let n = self.u32()? as usize;
        Ok((n, n.min(self.bytes.len() / min_item_len)))
    }

    fn record(mut self) -> Decode<WalRecord> {
        let tag = self.u8()?;
        if tag != TAG_CHUNK && tag != TAG_RETIRE {
            return Err("unknown record tag");
        }
        let app = self.string()?;
        let experiment = self.string()?;
        let trial = self.string()?;
        let record = if tag == TAG_RETIRE {
            WalRecord::Retire {
                app,
                experiment,
                trial,
            }
        } else {
            let seq = self.u64()?;
            let threads = self.u32()?;
            let (n_deltas, cap) = self.count(MIN_DELTA_LEN)?;
            let mut deltas = Vec::with_capacity(cap);
            for _ in 0..n_deltas {
                let metric = self.string()?;
                let event = self.string()?;
                let event_kind = match self.u8()? {
                    0 => None,
                    1 => Some(self.string()?),
                    _ => return Err("bad event_kind flag"),
                };
                let (n_cells, cap) = self.count(CELL_LEN)?;
                let mut cells = Vec::with_capacity(cap);
                for _ in 0..n_cells {
                    let thread = self.u32()?;
                    let m = Measurement {
                        inclusive: self.f64()?,
                        exclusive: self.f64()?,
                        calls: self.f64()?,
                        subcalls: self.f64()?,
                    };
                    cells.push((thread, m));
                }
                deltas.push(ColumnDelta {
                    metric,
                    event,
                    event_kind,
                    cells,
                });
            }
            WalRecord::Chunk {
                app,
                experiment,
                trial,
                batch: ChunkBatch {
                    seq,
                    threads,
                    deltas,
                },
            }
        };
        if !self.bytes.is_empty() {
            return Err("trailing bytes after the record");
        }
        Ok(record)
    }
}

/// Decodes every intact record of a journal byte image, stopping at the
/// first torn or corrupt frame. Errors only when the header itself is
/// not a journal's.
pub fn replay_bytes(bytes: &[u8]) -> Result<WalReplay> {
    if bytes.is_empty() {
        return Ok(WalReplay::default());
    }
    if bytes.len() < WAL_HEADER_LEN || bytes[..4] != WAL_MAGIC {
        return Err(wal_error("not a journal: bad magic".to_string()));
    }
    let version = u32::from_le_bytes([bytes[4], bytes[5], bytes[6], bytes[7]]);
    if version != WAL_VERSION {
        return Err(wal_error(format!("unsupported journal version {version}")));
    }
    let mut replay = WalReplay::default();
    let mut at = WAL_HEADER_LEN;
    while at < bytes.len() {
        let remaining = bytes.len() - at;
        if remaining < FRAME_HEADER_LEN {
            replay.torn_bytes = remaining;
            replay.torn_reason = Some(format!("torn frame header ({remaining} bytes)"));
            break;
        }
        let len =
            u32::from_le_bytes([bytes[at], bytes[at + 1], bytes[at + 2], bytes[at + 3]]) as usize;
        let crc = u32::from_le_bytes([bytes[at + 4], bytes[at + 5], bytes[at + 6], bytes[at + 7]]);
        let payload_at = at + FRAME_HEADER_LEN;
        if len > bytes.len() - payload_at {
            replay.torn_bytes = remaining;
            replay.torn_reason = Some(format!(
                "torn payload (frame wants {len} bytes, {} remain)",
                bytes.len() - payload_at
            ));
            break;
        }
        let payload = &bytes[payload_at..payload_at + len];
        if crc32(payload) != crc {
            replay.torn_bytes = remaining;
            replay.torn_reason = Some(format!("checksum mismatch at offset {at}"));
            break;
        }
        match (PayloadReader { bytes: payload }).record() {
            Ok(rec) => replay.records.push(rec),
            Err(e) => {
                replay.torn_bytes = remaining;
                replay.torn_reason = Some(format!("undecodable record at offset {at}: {e}"));
                break;
            }
        }
        at = payload_at + len;
    }
    Ok(replay)
}

/// Replays a journal file. A missing file is an empty journal.
pub fn replay_path(path: &Path) -> Result<WalReplay> {
    match std::fs::read(path) {
        Ok(bytes) => replay_bytes(&bytes),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(WalReplay::default()),
        Err(e) => Err(DmfError::Io(e)),
    }
}

impl Journal {
    /// Opens (or creates) a journal for appending, first replaying it.
    ///
    /// Recovery and reopen are one operation on purpose: the replay
    /// finds the valid prefix, the file is truncated to exactly that
    /// prefix (discarding any torn tail), and the returned journal
    /// appends after it. The caller gets every intact record.
    pub fn open(path: &Path, policy: FsyncPolicy) -> Result<(Journal, WalReplay)> {
        let existing = match std::fs::read(path) {
            Ok(bytes) => Some(bytes),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => None,
            Err(e) => return Err(DmfError::Io(e)),
        };
        let (replay, valid_len) = match existing {
            Some(bytes) => {
                let replay = replay_bytes(&bytes)?;
                let valid = bytes.len() - replay.torn_bytes;
                (replay, valid)
            }
            None => (WalReplay::default(), 0),
        };

        let file = std::fs::OpenOptions::new()
            .create(true)
            .read(true)
            .write(true)
            .truncate(false)
            .open(path)?;
        if valid_len == 0 {
            // Fresh (or unreadably short) journal: write the header.
            file.set_len(0)?;
            let mut f = &file;
            f.write_all(&WAL_MAGIC)?;
            f.write_all(&WAL_VERSION.to_le_bytes())?;
            if !matches!(policy, FsyncPolicy::Never) {
                file.sync_all()?;
                crate::repo::fsync_parent_dir(path)?;
            }
        } else {
            // Truncate the torn tail so post-restart appends start on a
            // frame boundary.
            file.set_len(valid_len as u64)?;
        }
        use std::io::Seek;
        let mut file = file;
        file.seek(std::io::SeekFrom::End(0))?;
        let appended = replay.records.len() as u64;
        let retired = replay
            .records
            .iter()
            .filter(|r| matches!(r, WalRecord::Retire { .. }))
            .count() as u64;
        Ok((
            Journal {
                path: path.to_path_buf(),
                file,
                policy,
                unsynced: 0,
                appended,
                retired,
                frame: Vec::new(),
            },
            replay,
        ))
    }

    /// The journal's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Records in the journal (replayed plus appended, minus nothing —
    /// compaction resets it).
    pub fn records(&self) -> u64 {
        self.appended
    }

    /// Retire tombstones currently in the journal.
    pub fn retired(&self) -> u64 {
        self.retired
    }

    /// Appends one record and applies the fsync policy. When this
    /// returns, the record is in the file (and on disk, under
    /// [`FsyncPolicy::Always`]) — only then may the caller acknowledge
    /// the chunk. Takes a `&WalRecord` or a borrowed [`RecordRef`].
    pub fn append<'a>(&mut self, record: impl Into<RecordRef<'a>>) -> Result<()> {
        let record = record.into();
        encode_frame_into(&mut self.frame, record)?;
        self.file.write_all(&self.frame)?;
        self.appended += 1;
        if matches!(record, RecordRef::Retire { .. }) {
            self.retired += 1;
        }
        match self.policy {
            FsyncPolicy::Always => self.file.sync_data()?,
            FsyncPolicy::EveryN(n) => {
                self.unsynced += 1;
                if self.unsynced >= n.max(1) {
                    self.file.sync_data()?;
                    self.unsynced = 0;
                }
            }
            FsyncPolicy::Never => {}
        }
        Ok(())
    }

    /// Forces everything appended so far to disk regardless of policy.
    pub fn sync(&mut self) -> Result<()> {
        self.file.sync_data()?;
        self.unsynced = 0;
        Ok(())
    }

    /// Chaos hook: appends only the first `keep` bytes of the record's
    /// frame, simulating a crash mid-append (a torn write). The frame is
    /// always left incomplete — `keep` is clamped below the frame
    /// length — so replay must discard it. Returns the full frame
    /// length the torn write was cut from.
    pub fn append_torn(&mut self, record: &WalRecord, keep: usize) -> Result<usize> {
        let frame = encode_frame(record.into())?;
        let cut = keep.min(frame.len().saturating_sub(1));
        self.file.write_all(&frame[..cut])?;
        self.file.sync_data()?;
        Ok(frame.len())
    }

    /// Rewrites the journal without retired streams' records, using the
    /// tmp+fsync+rename discipline: the journal on disk is one complete
    /// document at every instant, and a crash mid-compaction leaves the
    /// previous generation readable.
    pub fn compact(&mut self) -> Result<CompactStats> {
        let replay = replay_path(&self.path)?;
        let before = replay.records.len();
        let live = replay.live_streams();
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&WAL_MAGIC);
        bytes.extend_from_slice(&WAL_VERSION.to_le_bytes());
        let mut after = 0usize;
        for ((app, experiment, trial), batches) in live {
            for batch in batches {
                let rec = RecordRef::Chunk {
                    app: &app,
                    experiment: &experiment,
                    trial: &trial,
                    batch,
                };
                bytes.extend_from_slice(&encode_frame(rec)?);
                after += 1;
            }
        }
        crate::repo::write_atomic(&self.path, &bytes)?;
        // The rename replaced the inode; reopen the append handle.
        use std::io::Seek;
        let mut file = std::fs::OpenOptions::new()
            .read(true)
            .write(true)
            .open(&self.path)?;
        file.seek(std::io::SeekFrom::End(0))?;
        self.file = file;
        self.unsynced = 0;
        self.appended = after as u64;
        self.retired = 0;
        Ok(CompactStats { before, after })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::streaming::ColumnDelta;
    use crate::Measurement;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("perfdmf-wal-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let unique = format!(
            "{}-{}-{name}",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap()
                .as_nanos()
        );
        dir.join(unique)
    }

    fn chunk(seq: u64, v: f64) -> ChunkBatch {
        ChunkBatch {
            seq,
            threads: 2,
            deltas: vec![ColumnDelta {
                metric: "TIME".into(),
                event: "main".into(),
                event_kind: None,
                cells: vec![(0, Measurement::leaf(v)), (1, Measurement::leaf(v + 1.0))],
            }],
        }
    }

    fn rec(trial: &str, seq: u64, v: f64) -> WalRecord {
        WalRecord::Chunk {
            app: "app".into(),
            experiment: "exp".into(),
            trial: trial.into(),
            batch: chunk(seq, v),
        }
    }

    #[test]
    fn append_then_replay_round_trips() {
        let path = tmp("roundtrip.wal");
        let records = vec![rec("t1", 0, 1.0), rec("t1", 1, 2.0), rec("t2", 0, 3.0)];
        {
            let (mut j, replay) = Journal::open(&path, FsyncPolicy::Always).unwrap();
            assert!(replay.records.is_empty());
            for r in &records {
                j.append(r).unwrap();
            }
            assert_eq!(j.records(), 3);
        }
        let replay = replay_path(&path).unwrap();
        assert_eq!(replay.records, records);
        assert_eq!(replay.torn_bytes, 0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_tail_is_discarded_and_truncated_on_reopen() {
        let path = tmp("torn.wal");
        {
            let (mut j, _) = Journal::open(&path, FsyncPolicy::Never).unwrap();
            j.append(&rec("t1", 0, 1.0)).unwrap();
            j.append(&rec("t1", 1, 2.0)).unwrap();
            // Crash mid-append of the third record.
            let full = j.append_torn(&rec("t1", 2, 3.0), 11).unwrap();
            assert!(full > 11);
        }
        let replay = replay_path(&path).unwrap();
        assert_eq!(replay.records.len(), 2, "torn record discarded");
        assert!(replay.torn_bytes > 0);
        assert!(replay.torn_reason.is_some());

        // Reopen truncates the tail; appending afterwards yields a
        // clean three-record journal.
        {
            let (mut j, replay) = Journal::open(&path, FsyncPolicy::Never).unwrap();
            assert_eq!(replay.records.len(), 2);
            j.append(&rec("t1", 2, 3.0)).unwrap();
        }
        let replay = replay_path(&path).unwrap();
        assert_eq!(replay.records.len(), 3);
        assert_eq!(replay.torn_bytes, 0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn every_torn_cut_point_recovers_the_acknowledged_prefix() {
        // Kill-point sweep: whatever byte the crash lands on, replay
        // recovers exactly the two acknowledged records.
        let probe = encode_frame((&rec("t1", 2, 3.0)).into()).unwrap();
        for cut in 0..probe.len() {
            let path = tmp(&format!("cutpoint-{cut}.wal"));
            {
                let (mut j, _) = Journal::open(&path, FsyncPolicy::Never).unwrap();
                j.append(&rec("t1", 0, 1.0)).unwrap();
                j.append(&rec("t1", 1, 2.0)).unwrap();
                j.append_torn(&rec("t1", 2, 3.0), cut).unwrap();
            }
            let replay = replay_path(&path).unwrap();
            assert_eq!(replay.records.len(), 2, "cut at {cut}");
            std::fs::remove_file(&path).ok();
        }
    }

    #[test]
    fn bitrot_mid_file_keeps_the_prefix() {
        let path = tmp("bitrot.wal");
        {
            let (mut j, _) = Journal::open(&path, FsyncPolicy::Never).unwrap();
            for i in 0..4 {
                j.append(&rec("t1", i, i as f64)).unwrap();
            }
        }
        let mut bytes = std::fs::read(&path).unwrap();
        // Flip a byte inside the second record's payload.
        let second_at = {
            let first_len = u32::from_le_bytes([bytes[8], bytes[9], bytes[10], bytes[11]]) as usize;
            WAL_HEADER_LEN + FRAME_HEADER_LEN + first_len
        };
        bytes[second_at + FRAME_HEADER_LEN + 3] ^= 0x40;
        let replay = replay_bytes(&bytes).unwrap();
        assert_eq!(replay.records.len(), 1, "prefix before the rot survives");
        assert!(replay
            .torn_reason
            .as_deref()
            .unwrap()
            .contains("checksum mismatch"));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn live_streams_folds_retires() {
        let path = tmp("retire.wal");
        {
            let (mut j, _) = Journal::open(&path, FsyncPolicy::Never).unwrap();
            j.append(&rec("t1", 0, 1.0)).unwrap();
            j.append(&rec("t2", 0, 2.0)).unwrap();
            j.append(&rec("t1", 1, 3.0)).unwrap();
            j.append(&WalRecord::Retire {
                app: "app".into(),
                experiment: "exp".into(),
                trial: "t1".into(),
            })
            .unwrap();
            assert_eq!(j.retired(), 1);
        }
        let replay = replay_path(&path).unwrap();
        let live = replay.live_streams();
        assert_eq!(live.len(), 1);
        assert_eq!(live[0].0 .2, "t2");
        assert_eq!(live[0].1.len(), 1);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn compact_drops_retired_streams_and_stays_appendable() {
        let path = tmp("compact.wal");
        let (mut j, _) = Journal::open(&path, FsyncPolicy::Never).unwrap();
        for i in 0..8 {
            j.append(&rec("retired", i, i as f64)).unwrap();
        }
        j.append(&rec("live", 0, 42.0)).unwrap();
        j.append(&WalRecord::Retire {
            app: "app".into(),
            experiment: "exp".into(),
            trial: "retired".into(),
        })
        .unwrap();
        let stats = j.compact().unwrap();
        assert_eq!(stats.before, 10);
        assert_eq!(stats.after, 1);
        assert_eq!(j.records(), 1);
        assert_eq!(j.retired(), 0);

        // The journal accepts appends after the rewrite, and replay
        // sees both generations' records.
        j.append(&rec("live", 1, 43.0)).unwrap();
        drop(j);
        let replay = replay_path(&path).unwrap();
        assert_eq!(replay.records.len(), 2);
        let live = replay.live_streams();
        assert_eq!(live.len(), 1);
        assert_eq!(live[0].1.len(), 2);
        std::fs::remove_file(&path).ok();
    }

    /// Wraps a raw payload in a frame with a valid checksum, so a test
    /// can feed the decoder bytes the CRC cannot catch.
    fn framed(payload: &[u8]) -> Vec<u8> {
        let mut bytes = WAL_MAGIC.to_vec();
        bytes.extend_from_slice(&WAL_VERSION.to_le_bytes());
        bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        bytes.extend_from_slice(&crc32(payload).to_le_bytes());
        bytes.extend_from_slice(payload);
        bytes
    }

    fn payload_of(record: &WalRecord) -> Vec<u8> {
        encode_frame(record.into()).unwrap()[FRAME_HEADER_LEN..].to_vec()
    }

    #[test]
    fn checksummed_but_undecodable_payloads_are_torn() {
        let good = payload_of(&rec("t1", 0, 1.0));
        assert_eq!(replay_bytes(&framed(&good)).unwrap().records.len(), 1);

        let mut unknown_tag = good.clone();
        unknown_tag[0] = 7;
        let mut trailing = good.clone();
        trailing.push(0);
        let mut bad_utf8 = payload_of(&WalRecord::Retire {
            app: "ab".into(),
            experiment: "e".into(),
            trial: "t".into(),
        });
        bad_utf8[1 + 4] = 0xFF;
        // The delta count sits after tag, three strings, seq, threads.
        let count_at = 1 + (4 + 3) + (4 + 3) + (4 + 2) + 8 + 4;
        let mut inflated = good.clone();
        inflated[count_at..count_at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        let cut = &good[..good.len() - 1];
        for (name, payload) in [
            ("unknown tag", &unknown_tag[..]),
            ("trailing bytes", &trailing[..]),
            ("invalid UTF-8", &bad_utf8[..]),
            ("inflated delta count", &inflated[..]),
            ("short payload", cut),
            ("empty payload", &[][..]),
        ] {
            let replay = replay_bytes(&framed(payload)).unwrap();
            assert!(replay.records.is_empty(), "{name}");
            let reason = replay.torn_reason.unwrap();
            assert!(reason.contains("undecodable record"), "{name}: {reason}");
            assert_eq!(replay.torn_bytes, FRAME_HEADER_LEN + payload.len());
        }
    }

    #[test]
    fn v1_json_journal_refuses_with_typed_error() {
        let path = tmp("v1.wal");
        let payload = br#"{"Retire":{"app":"a","experiment":"e","trial":"t"}}"#;
        let mut image = WAL_MAGIC.to_vec();
        image.extend_from_slice(&1u32.to_le_bytes());
        image.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        image.extend_from_slice(&crc32(payload).to_le_bytes());
        image.extend_from_slice(payload);
        std::fs::write(&path, &image).unwrap();
        let err = Journal::open(&path, FsyncPolicy::Never).unwrap_err();
        assert!(
            err.to_string().contains("unsupported journal version 1"),
            "{err}"
        );
        // The refused journal is left exactly as it was.
        assert_eq!(std::fs::read(&path).unwrap(), image);
        std::fs::remove_file(&path).ok();
    }

    const NAMES: [&str; 6] = ["", "app", "TIME", "énergie", "main => solve", "PAPI_L2_DCM"];

    struct XorShift(u64);

    impl XorShift {
        fn next(&mut self) -> u64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            self.0
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }

        fn name(&mut self) -> String {
            NAMES[self.below(NAMES.len() as u64) as usize].to_string()
        }

        fn float(&mut self) -> f64 {
            f64::from_bits(self.next())
        }
    }

    /// Seeded records reaching every encoder branch: both tags, empty
    /// and non-ASCII strings, `event_kind` both ways, empty delta and
    /// cell lists, and arbitrary float bits (NaN payloads included).
    fn generated_records(count: usize) -> Vec<WalRecord> {
        let mut rng = XorShift(0x2545_f491_4f6c_dd1d);
        (0..count)
            .map(|_| {
                let (app, experiment, trial) = (rng.name(), rng.name(), rng.name());
                if rng.below(5) == 0 {
                    return WalRecord::Retire {
                        app,
                        experiment,
                        trial,
                    };
                }
                let batch = ChunkBatch {
                    seq: rng.next(),
                    threads: rng.below(300) as u32,
                    deltas: (0..rng.below(4))
                        .map(|_| ColumnDelta {
                            metric: rng.name(),
                            event: rng.name(),
                            event_kind: if rng.below(2) == 0 {
                                None
                            } else {
                                Some(rng.name())
                            },
                            cells: (0..rng.below(6))
                                .map(|_| {
                                    let thread = rng.below(300) as u32;
                                    let m = Measurement {
                                        inclusive: rng.float(),
                                        exclusive: rng.float(),
                                        calls: rng.float(),
                                        subcalls: rng.float(),
                                    };
                                    (thread, m)
                                })
                                .collect(),
                        })
                        .collect(),
                };
                WalRecord::Chunk {
                    app,
                    experiment,
                    trial,
                    batch,
                }
            })
            .collect()
    }

    /// FNV-1a over a byte string.
    fn fnv1a(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
            (h ^ b as u64).wrapping_mul(0x1_0000_01b3)
        })
    }

    #[test]
    fn borrowed_appends_keep_the_v2_frames() {
        // Length and FNV-1a of the frames these records encoded to when
        // the journal appended only owned `WalRecord`s.
        const FRAMES_LEN: usize = 48_604;
        const FRAMES_FNV: u64 = 0x898f_e0f1_2b84_d4cc;
        let records = generated_records(256);
        let path = tmp("borrowed.wal");
        let (mut j, _) = Journal::open(&path, FsyncPolicy::Never).unwrap();
        let mut owned = Vec::new();
        for r in &records {
            owned.extend(encode_frame(r.into()).unwrap());
            // The parts as a caller holds them, outside any record.
            let (app, experiment, trial) = r.path();
            let view = match r {
                WalRecord::Chunk { batch, .. } => RecordRef::Chunk {
                    app,
                    experiment,
                    trial,
                    batch,
                },
                WalRecord::Retire { .. } => RecordRef::Retire {
                    app,
                    experiment,
                    trial,
                },
            };
            j.append(view).unwrap();
        }
        drop(j);
        let bytes = std::fs::read(&path).unwrap();
        let borrowed = &bytes[WAL_HEADER_LEN..];
        assert!(borrowed == owned, "borrowed and owned frames differ");
        assert_eq!(
            (borrowed.len(), fnv1a(borrowed)),
            (FRAMES_LEN, FRAMES_FNV),
            "the v2 frame bytes changed"
        );
        let replayed: Vec<_> = replay_bytes(&bytes)
            .unwrap()
            .records
            .iter()
            .map(record_bits)
            .collect();
        assert_eq!(
            replayed,
            records.iter().map(record_bits).collect::<Vec<_>>()
        );
        std::fs::remove_file(&path).ok();
    }

    /// Bit-exact projection of a record: floats as raw bits, so NaN
    /// payloads and `-0.0` compare exactly.
    type CellBits = (u32, [u64; 4]);
    type DeltaBits = (String, String, Option<String>, Vec<CellBits>);
    type BatchBits = (u64, u32, Vec<DeltaBits>);

    fn batch_bits(b: &ChunkBatch) -> BatchBits {
        let deltas = b
            .deltas
            .iter()
            .map(|d| {
                let cells = d
                    .cells
                    .iter()
                    .map(|(t, m)| {
                        let f = [m.inclusive, m.exclusive, m.calls, m.subcalls];
                        (*t, f.map(f64::to_bits))
                    })
                    .collect();
                (
                    d.metric.clone(),
                    d.event.clone(),
                    d.event_kind.clone(),
                    cells,
                )
            })
            .collect();
        (b.seq, b.threads, deltas)
    }

    fn record_bits(r: &WalRecord) -> (StreamKey, Option<BatchBits>) {
        let (a, e, t) = r.path();
        let key = (a.to_string(), e.to_string(), t.to_string());
        match r {
            WalRecord::Chunk { batch, .. } => (key, Some(batch_bits(batch))),
            WalRecord::Retire { .. } => (key, None),
        }
    }

    fn live_bits(replay: &WalReplay) -> Vec<(StreamKey, Vec<BatchBits>)> {
        replay
            .live_streams()
            .into_iter()
            .map(|(k, batches)| (k, batches.into_iter().map(batch_bits).collect()))
            .collect()
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        fn arb_f64() -> impl Strategy<Value = f64> {
            prop_oneof![
                (0u64..=u64::MAX).prop_map(f64::from_bits),
                prop::sample::select(vec![
                    f64::NAN,
                    -f64::NAN,
                    f64::from_bits(0x7ff0_0000_0000_0001),
                    f64::from_bits(0xfff8_dead_beef_0001),
                    f64::INFINITY,
                    f64::NEG_INFINITY,
                    -0.0,
                    0.0,
                    f64::from_bits(1),
                    -f64::MIN_POSITIVE / 2.0,
                    f64::MAX,
                ]),
            ]
        }

        fn arb_name() -> impl Strategy<Value = String> {
            prop_oneof![
                "[a-z]{0,10}",
                prop::sample::select(vec![
                    String::new(),
                    "main".to_string(),
                    "main => résumé".to_string(),
                    "計算 => ∑ ☃".to_string(),
                    "\u{1F600}\u{0}".to_string(),
                ]),
            ]
        }

        fn arb_delta() -> impl Strategy<Value = ColumnDelta> {
            let cell = (
                0u32..=u32::MAX,
                (arb_f64(), arb_f64(), arb_f64(), arb_f64()),
            );
            (
                arb_name(),
                arb_name(),
                prop_oneof![Just(None), arb_name().prop_map(Some)],
                prop::collection::vec(cell, 0..5),
            )
                .prop_map(|(metric, event, event_kind, cells)| ColumnDelta {
                    metric,
                    event,
                    event_kind,
                    cells: cells
                        .into_iter()
                        .map(|(t, (inclusive, exclusive, calls, subcalls))| {
                            (
                                t,
                                Measurement {
                                    inclusive,
                                    exclusive,
                                    calls,
                                    subcalls,
                                },
                            )
                        })
                        .collect(),
                })
        }

        fn arb_record() -> impl Strategy<Value = WalRecord> {
            // Few distinct trial names, so retires hit earlier chunks.
            let trial = || prop::sample::select(vec!["t0".to_string(), "t1".into(), "".into()]);
            prop_oneof![
                (
                    arb_name(),
                    trial(),
                    0u64..=u64::MAX,
                    0u32..=u32::MAX,
                    prop::collection::vec(arb_delta(), 0..4),
                )
                    .prop_map(|(experiment, trial, seq, threads, deltas)| {
                        WalRecord::Chunk {
                            app: "app".into(),
                            experiment,
                            trial,
                            batch: ChunkBatch {
                                seq,
                                threads,
                                deltas,
                            },
                        }
                    }),
                (arb_name(), trial()).prop_map(|(experiment, trial)| WalRecord::Retire {
                    app: "app".into(),
                    experiment,
                    trial,
                }),
            ]
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            #[test]
            fn records_round_trip_bit_exactly(
                records in prop::collection::vec(arb_record(), 0..6),
            ) {
                let path = tmp("prop.wal");
                let (mut j, _) = Journal::open(&path, FsyncPolicy::Never).unwrap();
                for r in &records {
                    j.append(r).unwrap();
                }
                let replay = replay_path(&path).unwrap();
                prop_assert_eq!(replay.torn_bytes, 0);
                let want: Vec<_> = records.iter().map(record_bits).collect();
                let got: Vec<_> = replay.records.iter().map(record_bits).collect();
                prop_assert_eq!(&got, &want);

                // Compaction rewrites the live streams bit-exactly.
                let live = live_bits(&replay);
                j.compact().unwrap();
                drop(j);
                let compacted = replay_path(&path).unwrap();
                prop_assert_eq!(compacted.torn_bytes, 0);
                prop_assert_eq!(live_bits(&compacted), live);
                std::fs::remove_file(&path).ok();
            }
        }
    }

    #[test]
    fn replay_rejects_non_journal_bytes() {
        assert!(replay_bytes(b"not a journal at all").is_err());
        assert!(replay_bytes(&[0x50]).is_err());
        // Empty is an empty journal, not an error.
        assert!(replay_bytes(b"").unwrap().records.is_empty());
    }

    #[test]
    fn missing_file_replays_empty() {
        let replay = replay_path(Path::new("/nonexistent/never/journal.wal")).unwrap();
        assert!(replay.records.is_empty());
    }

    #[test]
    fn every_n_policy_syncs_periodically() {
        // Behavioural smoke: the policy path executes; durability of
        // the OS page cache is not observable from here.
        let path = tmp("everyn.wal");
        let (mut j, _) = Journal::open(&path, FsyncPolicy::EveryN(3)).unwrap();
        for i in 0..7 {
            j.append(&rec("t", i, 0.0)).unwrap();
        }
        j.sync().unwrap();
        drop(j);
        assert_eq!(replay_path(&path).unwrap().records.len(), 7);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn streamed_replay_rebuilds_identical_trial() {
        use crate::streaming::StreamingTrial;
        // The recovery contract end to end: apply chunks to a live
        // stream while journaling, "crash", replay, rebuild — the
        // rebuilt trial's profile is byte-identical.
        let path = tmp("rebuild.wal");
        let chunks: Vec<ChunkBatch> = (0..5).map(|i| chunk(i, i as f64 * 1.5)).collect();
        let mut live = StreamingTrial::new("t", 2);
        {
            let (mut j, _) = Journal::open(&path, FsyncPolicy::Always).unwrap();
            for c in &chunks {
                j.append(&WalRecord::Chunk {
                    app: "app".into(),
                    experiment: "exp".into(),
                    trial: "t".into(),
                    batch: c.clone(),
                })
                .unwrap();
                live.apply_chunk(c).unwrap();
            }
        }
        let replay = replay_path(&path).unwrap();
        let streams = replay.live_streams();
        assert_eq!(streams.len(), 1);
        let mut rebuilt = StreamingTrial::new("t", 2);
        for batch in &streams[0].1 {
            rebuilt.apply_chunk(batch).unwrap();
        }
        assert_eq!(rebuilt.trial().profile, live.trial().profile);
        std::fs::remove_file(&path).ok();
    }
}
