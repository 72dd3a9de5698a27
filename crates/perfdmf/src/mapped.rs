//! Memory-mapped reads of PDB1 repositories.
//!
//! [`MappedRepository::open`] maps a PDB1 file and parses only its
//! skeleton — header, section table, string table, manifest — eagerly
//! (with their checksums; they are a few kilobytes). The column pages,
//! which dominate the file, stay untouched mapped memory until a trial
//! is asked for: [`MappedRepository::view`] validates that trial's page
//! checksum lazily, once, and [`TrialView::to_trial`] decodes the page
//! into the owned [`Trial`] every analysis reads. Opening a
//! million-trial store therefore costs a manifest parse, and a request
//! that touches three trials faults in, checksums and decodes three
//! pages.
//!
//! When mmap is unavailable — non-unix hosts, or the
//! `PERFDMF_NO_MMAP` environment variable is set (CI runs the whole
//! suite this way once) — the same API is served by an owned read of
//! the file, so every caller works identically on both paths.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use crate::formats::{Ingest, Policy};
use crate::model::{Event, Metric, ThreadId, Trial};
use crate::pdb1::{self, TrialRec};
use crate::repo::Repository;
use crate::{DmfError, Metadata, Result};
use std::collections::HashMap;
use std::path::Path;
use std::sync::atomic::{AtomicU8, Ordering};

/// Whether the mmap open path is available on this host: unix, and not
/// force-disabled via the `PERFDMF_NO_MMAP` environment variable (CI
/// sets it to exercise the owned-read fallback).
pub fn mmap_available() -> bool {
    cfg!(unix) && std::env::var_os("PERFDMF_NO_MMAP").is_none()
}

#[cfg(unix)]
mod sys {
    //! Minimal read-only mmap over the raw syscalls; no libc crate.

    use std::os::fd::AsRawFd;

    // std already links libc on unix; binding the two symbols we need
    // avoids a dependency the container does not have.
    extern "C" {
        fn mmap(
            addr: *mut core::ffi::c_void,
            len: usize,
            prot: i32,
            flags: i32,
            fd: i32,
            offset: i64,
        ) -> *mut core::ffi::c_void;
        fn munmap(addr: *mut core::ffi::c_void, len: usize) -> i32;
    }

    const PROT_READ: i32 = 1;
    const MAP_PRIVATE: i32 = 2;

    /// A read-only private file mapping, unmapped on drop.
    #[derive(Debug)]
    pub struct Map {
        ptr: std::ptr::NonNull<u8>,
        len: usize,
    }

    // SAFETY: a read-only MAP_PRIVATE mapping: no writer can change our
    // view of it, and sharing `&Map` across threads only ever reads.
    unsafe impl Send for Map {}
    unsafe impl Sync for Map {}

    impl Map {
        pub fn new(file: &std::fs::File, len: usize) -> std::io::Result<Map> {
            // SAFETY: null hint, read-only private mapping over a file
            // descriptor we hold open across the call; length checked
            // non-zero by the caller.
            let p = unsafe {
                mmap(
                    std::ptr::null_mut(),
                    len,
                    PROT_READ,
                    MAP_PRIVATE,
                    file.as_raw_fd(),
                    0,
                )
            };
            if p.is_null() || p as isize == -1 {
                return Err(std::io::Error::last_os_error());
            }
            // SAFETY: just checked non-null.
            let ptr = unsafe { std::ptr::NonNull::new_unchecked(p as *mut u8) };
            Ok(Map { ptr, len })
        }

        pub fn bytes(&self) -> &[u8] {
            // SAFETY: the mapping is valid for `len` bytes until drop,
            // and MAP_PRIVATE means no other process can mutate our
            // view of it.
            unsafe { std::slice::from_raw_parts(self.ptr.as_ptr(), self.len) }
        }
    }

    impl Drop for Map {
        fn drop(&mut self) {
            // SAFETY: unmapping exactly what `new` mapped.
            unsafe {
                munmap(self.ptr.as_ptr() as *mut core::ffi::c_void, self.len);
            }
        }
    }
}

/// The backing storage of a [`MappedRepository`]: a file mapping, or
/// the file's bytes read into memory on the fallback.
#[derive(Debug)]
enum Buffer {
    #[cfg(unix)]
    Mapped(sys::Map),
    Owned(Vec<u8>),
}

impl Buffer {
    fn bytes(&self) -> &[u8] {
        match self {
            #[cfg(unix)]
            Buffer::Mapped(m) => m.bytes(),
            Buffer::Owned(bytes) => bytes,
        }
    }

    fn is_mapped(&self) -> bool {
        #[cfg(unix)]
        if let Buffer::Mapped(_) = self {
            return true;
        }
        false
    }
}

const PAGE_UNCHECKED: u8 = 0;
const PAGE_OK: u8 = 1;
const PAGE_BAD: u8 = 2;

/// A PDB1 repository opened for lazy, per-trial reads.
///
/// The skeleton (names, axes, metadata) is owned; the measurement
/// pages stay in the mapping and are validated lazily, per trial, on
/// first access. Construct with [`MappedRepository::open`].
#[derive(Debug)]
pub struct MappedRepository {
    buf: Buffer,
    doc: pdb1::Doc,
    /// `(app, exp, trial)` → index into `doc.trials`.
    index: HashMap<(String, String, String), usize>,
    /// Lazy per-trial page validation: unchecked / ok / bad.
    page_state: Vec<AtomicU8>,
}

impl MappedRepository {
    /// Opens a PDB1 file.
    ///
    /// Uses mmap when available (see [`mmap_available`]); otherwise
    /// falls back to an owned read with identical semantics.
    /// Header, section table, string table and manifest are parsed and
    /// checksum-validated eagerly; column pages are validated lazily
    /// per trial.
    pub fn open(path: &Path) -> Result<Self> {
        let buf = if mmap_available() {
            let file = std::fs::File::open(path)?;
            let len = file.metadata()?.len() as usize;
            if len == 0 {
                Buffer::Owned(Vec::new())
            } else {
                match sys::Map::new(&file, len) {
                    Ok(m) => Buffer::Mapped(m),
                    // Some filesystems refuse mmap; fall back silently.
                    Err(_) => Buffer::Owned(std::fs::read(path)?),
                }
            }
        } else {
            Buffer::Owned(std::fs::read(path)?)
        };
        Self::from_buffer(buf)
    }

    /// Opens from in-memory PDB1 bytes (always the owned path); used by
    /// tests and callers that already hold the document.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self> {
        Self::from_buffer(Buffer::Owned(bytes.to_vec()))
    }

    fn from_buffer(buf: Buffer) -> Result<Self> {
        let doc = pdb1::parse_doc(buf.bytes(), &mut Ingest::new("pdb1", Policy::Strict))?;
        let mut index = HashMap::with_capacity(doc.trials.len());
        for (i, rec) in doc.trials.iter().enumerate() {
            index.insert((rec.app.clone(), rec.exp.clone(), rec.name.clone()), i);
        }
        let page_state = (0..doc.trials.len())
            .map(|_| AtomicU8::new(PAGE_UNCHECKED))
            .collect();
        Ok(MappedRepository {
            buf,
            doc,
            index,
            page_state,
        })
    }

    /// Whether the backing storage is an actual file mapping (false on
    /// the owned fallback).
    pub fn is_mapped(&self) -> bool {
        self.buf.is_mapped()
    }

    /// Number of trials in the manifest.
    pub fn trial_count(&self) -> usize {
        self.doc.trials.len()
    }

    /// `(application, experiment, trial)` identity of every trial, in
    /// manifest order.
    pub fn trial_paths(&self) -> impl Iterator<Item = (&str, &str, &str)> {
        self.doc
            .trials
            .iter()
            .map(|r| (r.app.as_str(), r.exp.as_str(), r.name.as_str()))
    }

    /// One trial's manifest record and checksummed page; materialize it
    /// with [`TrialView::to_trial`] — together the `Utilities.getTrial`
    /// equivalent on the mapped path. The trial's page checksum is
    /// validated on first access (cached thereafter).
    pub fn view(&self, app: &str, exp: &str, trial: &str) -> Result<TrialView<'_>> {
        let key = (app.to_string(), exp.to_string(), trial.to_string());
        let idx = *self.index.get(&key).ok_or_else(|| DmfError::NotFound {
            kind: "trial",
            name: format!("{app}/{exp}/{trial}"),
        })?;
        self.view_at(idx)
    }

    /// Views of every trial, in manifest order. Corrupt pages surface
    /// as per-trial errors, not a failed open.
    pub fn views(&self) -> impl Iterator<Item = Result<TrialView<'_>>> {
        (0..self.doc.trials.len()).map(move |i| self.view_at(i))
    }

    fn view_at(&self, idx: usize) -> Result<TrialView<'_>> {
        let rec = &self.doc.trials[idx];
        let page = self.doc.page_bytes(self.buf.bytes(), rec)?;
        match self.page_state[idx].load(Ordering::Acquire) {
            PAGE_OK => {}
            PAGE_BAD => return Err(bad_page(rec)),
            _ => {
                let ok = pdb1::crc32(page) == rec.page_crc;
                self.page_state[idx].store(if ok { PAGE_OK } else { PAGE_BAD }, Ordering::Release);
                if !ok {
                    return Err(bad_page(rec));
                }
            }
        }
        Ok(TrialView { rec, page })
    }

    /// Materialises the whole store into an owned [`Repository`]
    /// (strictly — any bad page is an error). The bridge back to the
    /// mutation APIs.
    pub fn to_repository(&self) -> Result<Repository> {
        let mut repo = Repository::new();
        for view in self.views() {
            let view = view?;
            repo.upsert_trial(&view.rec.app, &view.rec.exp, view.to_trial()?);
        }
        Ok(repo)
    }
}

fn bad_page(rec: &TrialRec) -> DmfError {
    DmfError::Parse {
        format: "pdb1",
        line: None,
        message: format!("trial {}: column page checksum mismatch", rec.path()),
    }
}

/// One trial of a [`MappedRepository`]: its manifest record (names,
/// axes, metadata) and its checksummed column page, still in the
/// backing buffer until [`TrialView::to_trial`] decodes it.
#[derive(Debug, Clone, Copy)]
pub struct TrialView<'a> {
    rec: &'a TrialRec,
    page: &'a [u8],
}

impl<'a> TrialView<'a> {
    /// Application name.
    pub fn app(&self) -> &'a str {
        &self.rec.app
    }

    /// Experiment name.
    pub fn experiment(&self) -> &'a str {
        &self.rec.exp
    }

    /// Trial name.
    pub fn name(&self) -> &'a str {
        &self.rec.name
    }

    /// The trial's metrics, in column order.
    pub fn metrics(&self) -> &'a [Metric] {
        &self.rec.metrics
    }

    /// The trial's events, in row order.
    pub fn events(&self) -> &'a [Event] {
        &self.rec.events
    }

    /// The trial's threads, in column order of each matrix row.
    pub fn threads(&self) -> &'a [ThreadId] {
        &self.rec.threads
    }

    /// The trial's metadata.
    pub fn metadata(&self) -> &'a Metadata {
        &self.rec.metadata
    }

    /// Materialises this trial into the owned model.
    pub fn to_trial(&self) -> Result<Trial> {
        pdb1::materialize_trial(self.rec, self.page)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Measurement, TrialBuilder};
    use crate::repo::Format;

    fn sample_repo() -> Repository {
        let mut repo = Repository::new();
        for (name, threads) in [("1_2", 2usize), ("1_4", 4)] {
            let mut b = TrialBuilder::with_flat_threads(name, threads);
            let time = b.metric("TIME");
            let cyc = b.metric("CPU_CYCLES");
            for (i, ename) in ["main", "main => compute"].iter().enumerate() {
                let e = b.event(ename);
                for t in 0..threads {
                    b.set(e, time, t, Measurement::leaf((10 * (i + 1) + t) as f64));
                    b.set(e, cyc, t, Measurement::leaf(1000.0 + t as f64));
                }
            }
            b.meta("threads", threads);
            repo.add_trial("app", "scaling", b.build()).unwrap();
        }
        repo
    }

    fn temp_path(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("perfdmf_mapped_test");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn open_is_zero_copy_and_matches_owned_model() {
        let repo = sample_repo();
        let path = temp_path("zc.pdb");
        repo.save_as(&path, Format::Pdb1).unwrap();

        let mapped = MappedRepository::open(&path).unwrap();
        assert_eq!(mapped.trial_count(), 2);
        assert_eq!(mapped.is_mapped(), mmap_available());

        let view = mapped.view("app", "scaling", "1_4").unwrap();
        assert_eq!(view.metrics().len(), 2);
        assert_eq!(view.events().len(), 2);
        assert_eq!(view.threads().len(), 4);
        assert_eq!(view.metadata().get_num("threads"), Some(4.0));

        // The materialized trial agrees with the owned model.
        let owned = repo.trial("app", "scaling", "1_4").unwrap();
        assert_eq!(&view.to_trial().unwrap(), owned);

        // Full materialisation round-trips.
        assert_eq!(mapped.to_repository().unwrap(), repo);

        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn owned_fallback_serves_identical_views() {
        let repo = sample_repo();
        let bytes = repo.to_pdb1();
        let mapped = MappedRepository::from_bytes(&bytes).unwrap();
        assert!(!mapped.is_mapped());
        let view = mapped.view("app", "scaling", "1_2").unwrap();
        assert_eq!(view.events().len(), 2);
        assert_eq!(view.threads().len(), 2);
        assert_eq!(mapped.to_repository().unwrap(), repo);
    }

    #[test]
    fn lazy_page_validation_flags_only_corrupt_trial() {
        let repo = sample_repo();
        let mut bytes = repo.to_pdb1();
        let doc = pdb1::parse_doc(&bytes, &mut Ingest::new("pdb1", Policy::Strict)).unwrap();
        // Corrupt the second trial's page.
        let rec = &doc.trials[1];
        let at = doc.pages_off + rec.page_off as usize + 3;
        bytes[at] ^= 0x10;

        let mapped = MappedRepository::from_bytes(&bytes).unwrap();
        // Clean trial loads; corrupt one errors on first touch and the
        // verdict is cached.
        assert!(mapped.view("app", "scaling", "1_2").is_ok());
        let err = mapped.view("app", "scaling", "1_4").unwrap_err();
        assert!(err.to_string().contains("checksum"), "{err}");
        let err2 = mapped.view("app", "scaling", "1_4").unwrap_err();
        assert!(err2.to_string().contains("checksum"));
        // views() surfaces per-trial results.
        let outcomes: Vec<bool> = mapped.views().map(|v| v.is_ok()).collect();
        assert_eq!(outcomes, vec![true, false]);
        assert!(mapped.to_repository().is_err());
    }

    #[test]
    fn missing_trial_is_typed_not_found() {
        let bytes = sample_repo().to_pdb1();
        let mapped = MappedRepository::from_bytes(&bytes).unwrap();
        assert!(matches!(
            mapped.view("app", "scaling", "nope"),
            Err(DmfError::NotFound { kind: "trial", .. })
        ));
    }
}
