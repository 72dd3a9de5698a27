//! The profile repository: applications → experiments → trials.
//!
//! This is the PerfDMF "relational database" role: analyses ask for trials
//! by `(application, experiment, trial)` name — exactly the
//! `Utilities.getTrial("Fluid Dynamic", "rib 45", "1_8")` call in the
//! paper's Figure 1 — and analysis results (derived metrics, new trials)
//! can be saved back. Persistence is either a JSON document (the
//! interchange format) or a PDB1 binary file (the storage format, see
//! [`crate::pdb1`]); readers autodetect the encoding by magic bytes.

use crate::formats::{Diagnostic, Ingest, Policy};
use crate::model::Trial;
use crate::{DmfError, Result};
use serde::{Deserialize, Reader, Serialize};
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;

/// On-disk repository encodings.
///
/// JSON stays the interchange format — diffable, editable, readable by
/// older builds. PDB1 is the binary columnar storage format analyses
/// can open at memory bandwidth. Readers never need to be told which
/// one they are looking at: the first four bytes decide.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Format {
    /// Nested v1 JSON document.
    Json,
    /// Binary columnar PDB1 file.
    Pdb1,
}

impl Format {
    /// Detects the encoding of an in-memory document by magic bytes.
    /// Anything that does not start with the PDB1 magic is treated as
    /// JSON (the pre-binary format had no magic of its own).
    pub fn detect_bytes(bytes: &[u8]) -> Format {
        if bytes.len() >= 4 && bytes[..4] == crate::pdb1::MAGIC {
            Format::Pdb1
        } else {
            Format::Json
        }
    }

    /// Detects the encoding of a file by reading its first bytes.
    pub fn detect(path: &Path) -> Result<Format> {
        use std::io::Read;
        let mut f = std::fs::File::open(path)?;
        let mut magic = [0u8; 4];
        let mut filled = 0;
        while filled < 4 {
            let n = f.read(&mut magic[filled..])?;
            if n == 0 {
                break;
            }
            filled += n;
        }
        Ok(Format::detect_bytes(&magic[..filled]))
    }

    /// Parses a format name as the CLI spells it.
    pub fn from_name(name: &str) -> Option<Format> {
        match name {
            "json" => Some(Format::Json),
            "pdb1" => Some(Format::Pdb1),
            _ => None,
        }
    }

    /// The canonical lowercase name.
    pub fn name(self) -> &'static str {
        match self {
            Format::Json => "json",
            Format::Pdb1 => "pdb1",
        }
    }
}

impl std::fmt::Display for Format {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One experiment: a named group of trials (e.g. a scaling series).
///
/// Trials are held as `Arc<Trial>`: cloning an experiment (or a
/// repository, or a snapshot of one) bumps refcounts instead of copying
/// profiles, and [`Repository::trial_mut`] copies a trial only while
/// another holder still shares it.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct Experiment {
    trials: BTreeMap<String, Arc<Trial>>,
}

impl Experiment {
    /// Trial names in order.
    pub fn trial_names(&self) -> impl Iterator<Item = &str> {
        self.trials.keys().map(|s| s.as_str())
    }

    /// All trials in name order.
    pub fn trials(&self) -> impl Iterator<Item = &Trial> {
        self.trials.values().map(|t| &**t)
    }

    /// All trials in name order, as shared handles.
    pub fn shared_trials(&self) -> impl Iterator<Item = &Arc<Trial>> {
        self.trials.values()
    }

    /// Number of trials.
    pub fn len(&self) -> usize {
        self.trials.len()
    }

    /// Whether the experiment holds no trials.
    pub fn is_empty(&self) -> bool {
        self.trials.is_empty()
    }
}

/// One application: a named group of experiments.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct Application {
    experiments: BTreeMap<String, Experiment>,
}

impl Application {
    /// Experiment names in order.
    pub fn experiment_names(&self) -> impl Iterator<Item = &str> {
        self.experiments.keys().map(|s| s.as_str())
    }
}

/// An in-memory profile repository with JSON persistence.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct Repository {
    applications: BTreeMap<String, Application>,
}

impl Repository {
    /// Creates an empty repository.
    pub fn new() -> Self {
        Repository::default()
    }

    /// Application names in order.
    pub fn application_names(&self) -> impl Iterator<Item = &str> {
        self.applications.keys().map(|s| s.as_str())
    }

    /// Stores a trial under `app / experiment`, creating the hierarchy as
    /// needed. Fails if a trial with the same name already exists there.
    pub fn add_trial(&mut self, app: &str, experiment: &str, trial: Trial) -> Result<()> {
        let exp = self
            .applications
            .entry(app.to_string())
            .or_default()
            .experiments
            .entry(experiment.to_string())
            .or_default();
        if exp.trials.contains_key(&trial.name) {
            return Err(DmfError::Duplicate {
                kind: "trial",
                name: format!("{app}/{experiment}/{}", trial.name),
            });
        }
        exp.trials.insert(trial.name.clone(), Arc::new(trial));
        Ok(())
    }

    /// Replaces (or inserts) a trial — used when analyses write derived
    /// metrics back to the store.
    pub fn upsert_trial(&mut self, app: &str, experiment: &str, trial: Trial) {
        self.upsert_shared(app, experiment, Arc::new(trial));
    }

    /// [`Repository::upsert_trial`] for a trial that is already shared:
    /// the repository takes one more reference instead of a copy.
    pub fn upsert_shared(&mut self, app: &str, experiment: &str, trial: Arc<Trial>) {
        self.applications
            .entry(app.to_string())
            .or_default()
            .experiments
            .entry(experiment.to_string())
            .or_default()
            .trials
            .insert(trial.name.clone(), trial);
    }

    /// Looks up an application.
    pub fn application(&self, app: &str) -> Result<&Application> {
        self.applications
            .get(app)
            .ok_or_else(|| DmfError::NotFound {
                kind: "application",
                name: app.to_string(),
            })
    }

    /// Looks up an experiment.
    pub fn experiment(&self, app: &str, experiment: &str) -> Result<&Experiment> {
        self.application(app)?
            .experiments
            .get(experiment)
            .ok_or_else(|| DmfError::NotFound {
                kind: "experiment",
                name: format!("{app}/{experiment}"),
            })
    }

    /// Looks up a trial — the `Utilities.getTrial` equivalent.
    pub fn trial(&self, app: &str, experiment: &str, trial: &str) -> Result<&Trial> {
        self.shared_trial(app, experiment, trial).map(|t| &**t)
    }

    /// Looks up a trial as a shared handle: cloning it is a refcount
    /// bump, and it stays valid after the repository changes or drops.
    pub fn shared_trial(&self, app: &str, experiment: &str, trial: &str) -> Result<&Arc<Trial>> {
        self.experiment(app, experiment)?
            .trials
            .get(trial)
            .ok_or_else(|| DmfError::NotFound {
                kind: "trial",
                name: format!("{app}/{experiment}/{trial}"),
            })
    }

    /// Mutable trial lookup. Copy-on-write: a trial still shared with
    /// another repository or a snapshot is copied first, so the other
    /// holders never see the change.
    pub fn trial_mut(&mut self, app: &str, experiment: &str, trial: &str) -> Result<&mut Trial> {
        self.applications
            .get_mut(app)
            .and_then(|a| a.experiments.get_mut(experiment))
            .and_then(|e| e.trials.get_mut(trial))
            .map(Arc::make_mut)
            .ok_or_else(|| DmfError::NotFound {
                kind: "trial",
                name: format!("{app}/{experiment}/{trial}"),
            })
    }

    /// All trials of an experiment sorted by a numeric metadata field —
    /// the shape scaling studies need (`threads = 1, 2, 4, ...`).
    pub fn trials_sorted_by(
        &self,
        app: &str,
        experiment: &str,
        meta_key: &str,
    ) -> Result<Vec<&Trial>> {
        let exp = self.experiment(app, experiment)?;
        let mut trials: Vec<&Trial> = exp.trials().collect();
        trials.sort_by(|a, b| {
            let ka = a.metadata.get_num(meta_key).unwrap_or(f64::MAX);
            let kb = b.metadata.get_num(meta_key).unwrap_or(f64::MAX);
            ka.partial_cmp(&kb).unwrap_or(std::cmp::Ordering::Equal)
        });
        Ok(trials)
    }

    /// Total number of trials across the repository.
    pub fn trial_count(&self) -> usize {
        self.applications
            .values()
            .flat_map(|a| a.experiments.values())
            .map(|e| e.trials.len())
            .sum()
    }

    /// Serialises the whole repository to a JSON string.
    pub fn to_json(&self) -> Result<String> {
        Ok(serde_json::to_string(self)?)
    }

    /// Restores a repository from its JSON form, strictly: the first
    /// fault is the error.
    pub fn from_json(json: &str) -> Result<Self> {
        read_json(json, &mut Ingest::new("json", Policy::Strict))
    }

    /// Encodes the whole repository to PDB1 bytes (see [`crate::pdb1`]).
    pub fn to_pdb1(&self) -> Vec<u8> {
        crate::pdb1::write_repository(self)
    }

    /// Restores a repository from PDB1 bytes, strictly: any checksum
    /// mismatch or structural problem is an error.
    pub fn from_pdb1(bytes: &[u8]) -> Result<Self> {
        crate::pdb1::read_repository(bytes)
    }

    /// Decodes raw document bytes, autodetecting the format by magic.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self> {
        match Format::detect_bytes(bytes) {
            Format::Pdb1 => Repository::from_pdb1(bytes),
            Format::Json => Repository::from_json(utf8(bytes)?),
        }
    }

    /// Saves to a file as JSON, crash-safely (see
    /// [`Repository::save_as`] for the mechanism and for choosing the
    /// binary format instead).
    pub fn save(&self, path: &Path) -> Result<()> {
        self.save_as(path, Format::Json)
    }

    /// Saves to a file in the given format, crash-safely.
    ///
    /// The document is written to `<path>.tmp`, fsynced, and atomically
    /// renamed over `path`; a crash mid-write leaves the previous file
    /// intact. The previous version (if any) is first preserved as
    /// `<path>.bak`, so [`Repository::load_or_salvage`] always has one
    /// generation to fall back to even if the primary is later
    /// corrupted in place. After the rename the parent directory is
    /// fsynced too — the rename itself is only durable once the
    /// directory entry is on disk.
    pub fn save_as(&self, path: &Path, format: Format) -> Result<()> {
        let bytes = match format {
            Format::Json => self.to_json()?.into_bytes(),
            Format::Pdb1 => self.to_pdb1(),
        };
        write_atomic(path, &bytes)
    }

    /// Loads from a file, strictly: any corruption is an error. The
    /// format (JSON or PDB1) is autodetected by magic bytes.
    pub fn load(path: &Path) -> Result<Self> {
        let bytes = std::fs::read(path)?;
        Repository::from_bytes(&bytes)
    }

    /// Recovers whatever is readable from a possibly corrupt repository
    /// JSON document.
    ///
    /// This is the lossy policy of [`Repository::from_json`]'s walk,
    /// which goes application by application, experiment by experiment,
    /// trial by trial: a trial that does not decode, or a table that is
    /// not one, is skipped and recorded as a typed [`Diagnostic`] — the
    /// same shape the lossy text parsers report. Fails only if the text
    /// is not JSON at all.
    pub fn salvage_json(json: &str) -> Result<(Self, Vec<Diagnostic>)> {
        let mut ingest = Ingest::new("json", Policy::Lossy);
        let repo = read_json(json, &mut ingest)?;
        Ok((repo, ingest.diagnostics))
    }

    /// Recovers whatever is readable from possibly corrupt document
    /// bytes, in either format (autodetected by magic).
    pub fn salvage_bytes(bytes: &[u8]) -> Result<(Self, Vec<Diagnostic>)> {
        match Format::detect_bytes(bytes) {
            Format::Pdb1 => crate::pdb1::salvage(bytes),
            Format::Json => Repository::salvage_json(utf8(bytes)?),
        }
    }

    /// Loads a repository, degrading gracefully: a clean file loads
    /// normally, a corrupt one is salvaged subtree-by-subtree (JSON) or
    /// section-by-section (PDB1), and if the primary is beyond salvage
    /// the `.bak` generation written by [`Repository::save_as`] is
    /// tried. The [`RecoveredRepository`] records which path was taken.
    pub fn load_or_salvage(path: &Path) -> Result<RecoveredRepository> {
        match Repository::load(path) {
            Ok(repo) => Ok(RecoveredRepository {
                repo,
                dropped: Vec::new(),
                used_backup: false,
            }),
            Err(primary_err) => {
                if let Ok(bytes) = std::fs::read(path) {
                    if let Ok((repo, dropped)) = Repository::salvage_bytes(&bytes) {
                        if repo.trial_count() > 0 {
                            return Ok(RecoveredRepository {
                                repo,
                                dropped,
                                used_backup: false,
                            });
                        }
                    }
                }
                match Repository::load(&sibling(path, ".bak")) {
                    Ok(repo) => Ok(RecoveredRepository {
                        repo,
                        dropped: vec![Diagnostic {
                            format: "repo",
                            line: None,
                            message: format!("primary unreadable: {primary_err}"),
                        }],
                        used_backup: true,
                    }),
                    Err(_) => Err(primary_err),
                }
            }
        }
    }
}

/// Outcome of [`Repository::load_or_salvage`].
#[derive(Debug)]
pub struct RecoveredRepository {
    /// The repository that was recovered (possibly partial).
    pub repo: Repository,
    /// Typed diagnostics for every subtree or section that could not
    /// be recovered.
    pub dropped: Vec<Diagnostic>,
    /// Whether the `.bak` generation had to be used.
    pub used_backup: bool,
}

impl RecoveredRepository {
    /// Whether the load was entirely clean.
    pub fn is_clean(&self) -> bool {
        self.dropped.is_empty() && !self.used_backup
    }
}

/// `<path><suffix>` as a sibling file (`repo.json` → `repo.json.tmp`).
fn sibling(path: &Path, suffix: &str) -> std::path::PathBuf {
    let mut name = path.file_name().unwrap_or_default().to_os_string();
    name.push(suffix);
    path.with_file_name(name)
}

fn utf8(bytes: &[u8]) -> Result<&str> {
    std::str::from_utf8(bytes).map_err(|_| DmfError::Parse {
        format: "json",
        line: None,
        message: "document is not valid UTF-8".to_string(),
    })
}

/// The one walk over a repository JSON document, under `ingest`'s
/// policy. Under `Strict` it accepts and rejects exactly what the
/// derived `Repository` decoder does. Under `Lossy` a trial that fails
/// to decode, or a wrapper that is not `{"<field>": {...}}`, is
/// rewound, skipped with validation and recorded; a syntax error ends
/// the walk under either policy.
fn read_json(json: &str, ingest: &mut Ingest) -> Result<Repository> {
    let mut r = Reader::new(json);
    let mut repo = Repository::new();
    let applications = |r: &mut Reader, ingest: &mut Ingest, app: String| {
        let mut application = Application::default();
        let experiments = |r: &mut Reader, ingest: &mut Ingest, exp: String| {
            let mut experiment = Experiment::default();
            let trials = |r: &mut Reader, ingest: &mut Ingest, name: String| {
                let mark = r.mark();
                match Trial::deserialize(r) {
                    Ok(trial) => {
                        experiment.trials.insert(name, Arc::new(trial));
                    }
                    Err(e) => {
                        let recovery = |c: &str| format!("{app}/{exp}/{name}: {c}");
                        ingest.fault(DmfError::Json(e), recovery)?;
                        r.rewind(mark);
                        r.skip_value()?;
                    }
                }
                Ok(())
            };
            let unreadable = |c: &str| format!("{app}/{exp}: unreadable trials table: {c}");
            if table(r, ingest, "Experiment", "trials", unreadable, trials)? {
                application.experiments.insert(exp, experiment);
            }
            Ok(())
        };
        let unreadable = |c: &str| format!("{app}: unreadable experiments table: {c}");
        if table(
            r,
            ingest,
            "Application",
            "experiments",
            unreadable,
            experiments,
        )? {
            repo.applications.insert(app, application);
        }
        Ok(())
    };
    let unreadable = |c: &str| format!("no readable applications table: {c}");
    table(
        &mut r,
        ingest,
        "Repository",
        "applications",
        unreadable,
        applications,
    )?;
    r.finish()?;
    Ok(repo)
}

/// Walks the value at the cursor as `owner`, a struct whose one field
/// `field` is a string-keyed table, passing each entry's key to `entry`
/// with the cursor on the entry's value. As for any derived struct, the
/// first `field` wins and other members are validated and skipped; as
/// for any map, a repeated key replaces the earlier entry. A value that
/// is not such a struct is a fault, recorded through `recovery`; under
/// `Lossy` it is skipped and `false` returned.
fn table(
    r: &mut Reader,
    ingest: &mut Ingest,
    owner: &str,
    field: &str,
    recovery: impl FnOnce(&str) -> String,
    mut entry: impl FnMut(&mut Reader, &mut Ingest, String) -> Result<()>,
) -> Result<bool> {
    let mark = r.mark();
    let Some(fault) = walk_table(r, ingest, owner, field, &mut entry)? else {
        return Ok(true);
    };
    ingest.fault(DmfError::Json(fault), recovery)?;
    r.rewind(mark);
    r.skip_value()?;
    Ok(false)
}

/// [`table`]'s walk: `Ok(Some(fault))` when the value does not have the
/// wrapper's shape, before any entry was read.
fn walk_table(
    r: &mut Reader,
    ingest: &mut Ingest,
    owner: &str,
    field: &str,
    entry: &mut impl FnMut(&mut Reader, &mut Ingest, String) -> Result<()>,
) -> Result<Option<serde::Error>> {
    if !r.begin_object()? {
        return Ok(Some(serde::Error::custom(format!(
            "expected object for {owner}"
        ))));
    }
    let mut seen = false;
    while let Some(key) = r.next_key()? {
        if seen || key != field {
            r.skip_value()?;
            continue;
        }
        seen = true;
        if !r.begin_object()? {
            return Ok(Some(r.type_error("object")));
        }
        while let Some(key) = r.next_key()? {
            entry(r, ingest, key.into_owned())?;
        }
    }
    Ok((!seen).then(|| serde::Error::custom(format!("missing field `{field}` in {owner}"))))
}

/// Crash-safe file replacement: write a uniquely named scratch file,
/// fsync, keep the old generation as `<path>.bak`, rename over `path`,
/// then fsync the parent directory so the rename itself is durable.
///
/// The scratch name embeds the process id and a global counter
/// (`<path>.tmp.<pid>.<n>`): two concurrent saves to the same path —
/// the sharded service snapshots from many threads — each write their
/// own scratch file, so neither can truncate or interleave the other's
/// partially written bytes. Whichever rename lands last wins, and at
/// every instant the primary is one complete document.
pub(crate) fn write_atomic(path: &Path, bytes: &[u8]) -> Result<()> {
    use std::io::Write;
    use std::sync::atomic::{AtomicU64, Ordering};

    static SCRATCH_COUNTER: AtomicU64 = AtomicU64::new(0);
    let tmp = sibling(
        path,
        &format!(
            ".tmp.{}.{}",
            std::process::id(),
            SCRATCH_COUNTER.fetch_add(1, Ordering::Relaxed)
        ),
    );
    let write = || -> Result<()> {
        {
            let mut f = std::fs::File::create(&tmp)?;
            f.write_all(bytes)?;
            f.sync_all()?;
        }
        if path.exists() {
            // Versioned backup: the .bak always holds a recently
            // replaced generation. Copying the primary keeps it present
            // at every instant; staging the copy under a unique name
            // and renaming it into place keeps the .bak itself one
            // complete document even when saves race.
            let bak_tmp = sibling(&tmp, ".bak");
            std::fs::copy(path, &bak_tmp)?;
            std::fs::rename(&bak_tmp, sibling(path, ".bak"))?;
        }
        std::fs::rename(&tmp, path)?;
        fsync_parent_dir(path)?;
        Ok(())
    };
    let result = write();
    if result.is_err() {
        // Unique scratch names would otherwise accumulate on failure.
        std::fs::remove_file(&tmp).ok();
        std::fs::remove_file(sibling(&tmp, ".bak")).ok();
    }
    result
}

/// The rename in [`write_atomic`] only becomes durable once the parent
/// directory's entry table is on disk; an fsync on the file alone does
/// not cover it.
#[cfg(unix)]
pub(crate) fn fsync_parent_dir(path: &Path) -> std::io::Result<()> {
    let parent = match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p.to_path_buf(),
        _ => std::path::PathBuf::from("."),
    };
    std::fs::File::open(parent)?.sync_all()
}

#[cfg(not(unix))]
pub(crate) fn fsync_parent_dir(_path: &Path) -> std::io::Result<()> {
    // Directory handles cannot be fsynced portably off unix; the
    // file-level fsync in `write_atomic` is the best available.
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::TrialBuilder;

    fn trial(name: &str, threads: usize) -> Trial {
        let mut b = TrialBuilder::with_flat_threads(name, threads);
        let t = b.metric("TIME");
        let e = b.event("main");
        for th in 0..threads {
            b.set(e, t, th, crate::Measurement::leaf(1.0));
        }
        b.meta("threads", threads);
        b.build()
    }

    #[test]
    fn add_and_get_trial() {
        let mut repo = Repository::new();
        repo.add_trial("Fluid Dynamic", "rib 45", trial("1_8", 8))
            .unwrap();
        let t = repo.trial("Fluid Dynamic", "rib 45", "1_8").unwrap();
        assert_eq!(t.profile.thread_count(), 8);
    }

    #[test]
    fn missing_lookups_are_typed_errors() {
        let repo = Repository::new();
        assert!(matches!(
            repo.trial("nope", "x", "y"),
            Err(DmfError::NotFound {
                kind: "application",
                ..
            })
        ));
        let mut repo = Repository::new();
        repo.add_trial("app", "exp", trial("t", 1)).unwrap();
        assert!(matches!(
            repo.trial("app", "other", "t"),
            Err(DmfError::NotFound {
                kind: "experiment",
                ..
            })
        ));
        assert!(matches!(
            repo.trial("app", "exp", "other"),
            Err(DmfError::NotFound { kind: "trial", .. })
        ));
    }

    #[test]
    fn duplicate_trial_rejected_but_upsert_allowed() {
        let mut repo = Repository::new();
        repo.add_trial("a", "e", trial("t", 1)).unwrap();
        assert!(matches!(
            repo.add_trial("a", "e", trial("t", 2)),
            Err(DmfError::Duplicate { .. })
        ));
        repo.upsert_trial("a", "e", trial("t", 4));
        assert_eq!(repo.trial("a", "e", "t").unwrap().profile.thread_count(), 4);
    }

    #[test]
    fn trials_sorted_by_metadata() {
        let mut repo = Repository::new();
        for n in [8usize, 1, 4, 2] {
            repo.add_trial("app", "scaling", trial(&format!("1_{n}"), n))
                .unwrap();
        }
        let sorted = repo.trials_sorted_by("app", "scaling", "threads").unwrap();
        let counts: Vec<usize> = sorted.iter().map(|t| t.profile.thread_count()).collect();
        assert_eq!(counts, vec![1, 2, 4, 8]);
    }

    #[test]
    fn json_roundtrip() {
        let mut repo = Repository::new();
        repo.add_trial("app", "exp", trial("t1", 2)).unwrap();
        repo.add_trial("app", "exp", trial("t2", 4)).unwrap();
        let json = repo.to_json().unwrap();
        let back = Repository::from_json(&json).unwrap();
        assert_eq!(repo, back);
        assert_eq!(back.trial_count(), 2);
    }

    #[test]
    fn save_and_load_file() {
        let mut repo = Repository::new();
        repo.add_trial("app", "exp", trial("t1", 2)).unwrap();
        let dir = std::env::temp_dir().join("perfdmf_repo_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("repo.json");
        repo.save(&path).unwrap();
        let back = Repository::load(&path).unwrap();
        assert_eq!(repo, back);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn malformed_json_is_parse_error() {
        assert!(Repository::from_json("{ not json").is_err());
    }

    fn two_trial_json() -> String {
        let mut repo = Repository::new();
        repo.add_trial("app", "exp", trial("good", 2)).unwrap();
        repo.add_trial("app", "exp", trial("bad", 2)).unwrap();
        repo.add_trial("other", "exp", trial("t", 1)).unwrap();
        repo.to_json().unwrap()
    }

    #[test]
    fn salvage_skips_an_undecodable_trial_and_names_it() {
        // Give `bad` a thread axis its data does not match.
        let json = two_trial_json().replacen(
            r#""name":"bad","profile":{"metrics":[{"name":"TIME","derived":false}],"#,
            r#""name":"bad","profile":{"metrics":[],"#,
            1,
        );
        let strict = Repository::from_json(&json).unwrap_err().to_string();
        assert_eq!(
            strict,
            "json error: Profile: event 0 has 1 metric rows, expected 0"
        );
        let (repo, diags) = Repository::salvage_json(&json).unwrap();
        assert_eq!(repo.trial_count(), 2);
        assert!(repo.trial("app", "exp", "good").is_ok());
        assert_eq!(diags.len(), 1);
        assert_eq!(
            diags[0].to_string(),
            "json: app/exp/bad: Profile: event 0 has 1 metric rows, expected 0"
        );
    }

    #[test]
    fn salvage_skips_an_unreadable_table_and_keeps_the_rest() {
        let json = two_trial_json().replacen(
            r#""other":{"experiments":{"#,
            r#""other":{"experiments":7,"x":{"#,
            1,
        );
        let strict = Repository::from_json(&json).unwrap_err().to_string();
        assert_eq!(strict, "json error: expected object, found integer");
        let (repo, diags) = Repository::salvage_json(&json).unwrap();
        assert_eq!(repo.trial_count(), 2);
        assert_eq!(repo.application_names().collect::<Vec<_>>(), ["app"]);
        assert_eq!(diags.len(), 1);
        assert_eq!(
            diags[0].message,
            "other: unreadable experiments table: expected object, found integer"
        );
        let (empty, diags) = Repository::salvage_json("[1,2]").unwrap();
        assert_eq!(empty.trial_count(), 0);
        assert_eq!(
            diags[0].message,
            "no readable applications table: expected object for Repository"
        );
    }

    #[test]
    fn salvage_refuses_only_text_that_is_not_json() {
        let json = two_trial_json();
        let cut = &json[..json.len() - 3];
        assert!(Repository::from_json(cut).is_err());
        assert!(Repository::salvage_json(cut).is_err());
        let (clean, diags) = Repository::salvage_json(&json).unwrap();
        assert!(diags.is_empty());
        assert_eq!(clean, Repository::from_json(&json).unwrap());
    }

    fn temp_path(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("perfdmf_repo_test");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn save_keeps_backup_generation_and_no_tmp() {
        let path = temp_path("gen.json");
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(super::sibling(&path, ".bak")).ok();

        let mut repo = Repository::new();
        repo.add_trial("app", "exp", trial("t1", 1)).unwrap();
        repo.save(&path).unwrap();
        assert!(!super::sibling(&path, ".bak").exists());
        assert!(!super::sibling(&path, ".tmp").exists());

        let gen1 = repo.clone();
        repo.add_trial("app", "exp", trial("t2", 2)).unwrap();
        repo.save(&path).unwrap();
        // The .bak holds the previous generation.
        let bak = Repository::load(&super::sibling(&path, ".bak")).unwrap();
        assert_eq!(bak, gen1);
        assert_eq!(Repository::load(&path).unwrap(), repo);

        std::fs::remove_file(&path).ok();
        std::fs::remove_file(super::sibling(&path, ".bak")).ok();
    }

    #[test]
    fn concurrent_saves_to_one_path_never_interleave() {
        // Regression: `write_atomic` used a fixed `<path>.tmp` scratch
        // name, so two concurrent saves interleaved writes into the
        // same scratch file and could rename a half-written mix over
        // the primary. With unique scratch names every generation on
        // disk is exactly one writer's complete document.
        let dir =
            std::env::temp_dir().join(format!("perfdmf_concurrent_save_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("contended.json");

        // Each writer repeatedly saves its own distinctive repository:
        // `writers` different documents, all racing on one path.
        let writers = 8;
        let rounds = 12;
        let repos: Vec<Repository> = (0..writers)
            .map(|w| {
                let mut repo = Repository::new();
                // Different trial counts make the documents differ in
                // length, the shape most likely to expose interleaving.
                for i in 0..=w {
                    repo.add_trial("app", &format!("exp{w}"), trial(&format!("t{i}"), i + 1))
                        .unwrap();
                }
                repo
            })
            .collect();
        std::thread::scope(|scope| {
            for repo in &repos {
                let path = &path;
                scope.spawn(move || {
                    for _ in 0..rounds {
                        repo.save(path).unwrap();
                    }
                });
            }
        });

        // The surviving primary is byte-exactly one writer's document.
        let survivor = Repository::load(&path).unwrap();
        assert!(
            repos.contains(&survivor),
            "primary is a mix of concurrent writers"
        );
        // The backup, when readable, must also be a complete document
        // (it can lose the race between copy and a concurrent rename,
        // but never hold interleaved bytes of two writers).
        if let Ok(bak) = Repository::load(&sibling(&path, ".bak")) {
            assert!(repos.contains(&bak));
        }
        // No scratch files left behind.
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().contains(".tmp"))
            .collect();
        assert!(
            leftovers.is_empty(),
            "leftover scratch files: {leftovers:?}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn salvage_recovers_good_trials_from_corrupt_repo() {
        let mut repo = Repository::new();
        repo.add_trial("app", "exp", trial("good", 2)).unwrap();
        repo.add_trial("app", "exp", trial("bad", 2)).unwrap();
        let json = repo.to_json().unwrap();
        // Corrupt the "bad" trial: its name field becomes a number, so
        // that one subtree no longer deserialises.
        let corrupt = json.replace("\"name\":\"bad\"", "\"name\":42");
        assert!(Repository::from_json(&corrupt).is_err());
        let (salvaged, dropped) = Repository::salvage_json(&corrupt).unwrap();
        assert_eq!(salvaged.trial_count(), 1);
        assert!(salvaged.trial("app", "exp", "good").is_ok());
        assert_eq!(dropped.len(), 1);
        // Typed diagnostics, same shape as the lossy text parsers.
        assert_eq!(dropped[0].format, "json");
        assert!(dropped[0].message.starts_with("app/exp/bad"), "{dropped:?}");
    }

    #[test]
    fn salvage_of_non_json_is_error() {
        assert!(Repository::salvage_json("\0\0 garbage").is_err());
    }

    #[test]
    fn load_or_salvage_prefers_clean_then_salvage_then_backup() {
        let path = temp_path("recover.json");
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(super::sibling(&path, ".bak")).ok();

        let mut repo = Repository::new();
        repo.add_trial("app", "exp", trial("t1", 1)).unwrap();
        repo.save(&path).unwrap();
        let clean = Repository::load_or_salvage(&path).unwrap();
        assert!(clean.is_clean());
        assert_eq!(clean.repo, repo);

        // Second generation, then corrupt the primary in place beyond
        // JSON repair: salvage fails, the .bak generation is used.
        repo.add_trial("app", "exp", trial("t2", 2)).unwrap();
        repo.save(&path).unwrap();
        std::fs::write(&path, "{ totally broken").unwrap();
        let recovered = Repository::load_or_salvage(&path).unwrap();
        assert!(recovered.used_backup);
        assert_eq!(recovered.repo.trial_count(), 1);

        // Truncate primary mid-document *and* remove the backup: error.
        std::fs::remove_file(super::sibling(&path, ".bak")).unwrap();
        assert!(Repository::load_or_salvage(&path).is_err());

        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn format_detection_by_magic() {
        let mut repo = Repository::new();
        repo.add_trial("a", "e", trial("t", 2)).unwrap();
        let json = repo.to_json().unwrap();
        let bin = repo.to_pdb1();
        assert_eq!(Format::detect_bytes(json.as_bytes()), Format::Json);
        assert_eq!(Format::detect_bytes(&bin), Format::Pdb1);
        assert_eq!(Format::detect_bytes(b""), Format::Json);
        assert_eq!(Format::from_name("pdb1"), Some(Format::Pdb1));
        assert_eq!(Format::from_name("xml"), None);
        assert_eq!(Format::Pdb1.to_string(), "pdb1");
    }

    #[test]
    fn save_as_pdb1_and_autodetecting_load() {
        let path = temp_path("binary.pdb");
        std::fs::remove_file(&path).ok();
        let mut repo = Repository::new();
        repo.add_trial("app", "exp", trial("t1", 4)).unwrap();
        repo.save_as(&path, Format::Pdb1).unwrap();
        assert_eq!(Format::detect(&path).unwrap(), Format::Pdb1);
        // `load` needs no format hint.
        let back = Repository::load(&path).unwrap();
        assert_eq!(back, repo);
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(super::sibling(&path, ".bak")).ok();
    }

    #[test]
    fn load_or_salvage_handles_corrupt_pdb1() {
        let path = temp_path("salvage.pdb");
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(super::sibling(&path, ".bak")).ok();

        let mut repo = Repository::new();
        repo.add_trial("app", "exp", trial("t1", 2)).unwrap();
        repo.add_trial("app", "exp", trial("t2", 2)).unwrap();
        repo.save_as(&path, Format::Pdb1).unwrap();

        // Flip the string-table checksum in place: strict load fails,
        // salvage recovers everything with a section diagnostic.
        let mut bytes = std::fs::read(&path).unwrap();
        crate::pdb1::flip_section_checksum(&mut bytes, 0, 1).unwrap();
        std::fs::write(&path, &bytes).unwrap();

        let recovered = Repository::load_or_salvage(&path).unwrap();
        assert!(!recovered.used_backup);
        assert_eq!(recovered.repo.trial_count(), 2);
        assert!(recovered
            .dropped
            .iter()
            .any(|d| d.format == "pdb1" && d.message.contains("string table")));

        std::fs::remove_file(&path).ok();
        std::fs::remove_file(super::sibling(&path, ".bak")).ok();
    }

    #[test]
    fn enumeration_apis() {
        let mut repo = Repository::new();
        repo.add_trial("b_app", "e1", trial("t", 1)).unwrap();
        repo.add_trial("a_app", "e1", trial("t", 1)).unwrap();
        let names: Vec<&str> = repo.application_names().collect();
        assert_eq!(names, vec!["a_app", "b_app"]);
        let exp = repo.experiment("a_app", "e1").unwrap();
        assert_eq!(exp.len(), 1);
        assert!(!exp.is_empty());
        assert_eq!(exp.trial_names().collect::<Vec<_>>(), vec!["t"]);
    }
}
