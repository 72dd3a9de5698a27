//! The micro-benchmark harness every bench in `benches/` runs on: one
//! interleaved timer, allocation counts per case, one writer and one
//! `main`.
//!
//! A bench declares each case once, as one closure ([`Bench::case`]) or
//! as two closures doing the same job two ways ([`Bench::pair`]), and
//! ends with [`Bench::finish`]. What a declaration does depends on how
//! the binary was started ([`Mode::from_env`]):
//!
//! * `cargo bench -p bench --bench B -- --test`: every case runs once,
//!   unmeasured, under the allocation counter. The count may not exceed
//!   the `allocs_per_op` committed for the case in the bench's
//!   `BENCH_*.json` (the allocation gate). A case whose count depends on
//!   the pool's thread count is exempt ([`Bench::ungated`]).
//! * `BENCH_JSON=<path> cargo bench -p bench --bench B`: every case is
//!   timed and the document is written to `<path>`, with the core count,
//!   the commit, the timing method and each case's rounds.
//! * neither: every case is timed and printed.
//!
//! The bench's own agreement checks (its sides against their reference
//! implementations) run before the declarations, in every mode.
//!
//! # Timing
//!
//! [`interleave`] times one or two sides. Each side runs in doubling
//! batches until one batch lasts at least [`SAMPLE`]; that batch size
//! then holds for every round. Round `r` starts with side `r % n`, so
//! each side of a pair runs first in every other round, and both see the
//! same machine state. A case runs as many rounds as fit in
//! [`ROUND_BUDGET`] per side, between [`MIN_ROUNDS`] and [`MAX_ROUNDS`];
//! the harness reports the min and the median per-call time over them.
//!
//! # Allocation counting
//!
//! [`CountingAlloc`] forwards every request to the system allocator and
//! counts allocations (a `realloc` counts as one) and the bytes they
//! ask for. Only a binary that installs it counts anything, so it stays
//! out of every production binary; every bench and the allocation tests
//! opt in with
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: bench::measure::CountingAlloc = bench::measure::CountingAlloc;
//! ```
//!
//! and read the counts around the code under test with
//! [`count_allocs`]. The counters are process-wide, so allocations made
//! by other threads in that window are included: measure where nothing
//! else runs, such as a test binary of its own.

use serde_json::Value;
use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

/// A global allocator that counts allocations and requested bytes.
pub struct CountingAlloc;

impl CountingAlloc {
    fn record(size: usize) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(size as u64, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counters have no effect on the memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::record(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Self::record(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::record(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

/// Allocations counted over some span of a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Allocs {
    /// Allocation calls (`alloc`, `alloc_zeroed` and `realloc`).
    pub count: u64,
    /// Bytes those calls requested.
    pub bytes: u64,
}

/// Runs `f` and returns its result with the allocations made while it
/// ran. Reads zero unless the binary installed [`CountingAlloc`].
pub fn count_allocs<R>(f: impl FnOnce() -> R) -> (R, Allocs) {
    let (count, bytes) = (
        ALLOCS.load(Ordering::Relaxed),
        BYTES.load(Ordering::Relaxed),
    );
    let r = f();
    let allocs = Allocs {
        count: ALLOCS.load(Ordering::Relaxed) - count,
        bytes: BYTES.load(Ordering::Relaxed) - bytes,
    };
    (r, allocs)
}

/// The shortest sample: a batch of calls lasts at least this long, so
/// the clock's resolution and the loop stay small against the work.
pub const SAMPLE: Duration = Duration::from_millis(1);
/// Time budget of one side's rounds; slow cases run fewer rounds.
pub const ROUND_BUDGET: Duration = Duration::from_secs(1);
/// Fewest rounds a case runs, however slow.
pub const MIN_ROUNDS: usize = 5;
/// Most rounds a case runs, however fast.
pub const MAX_ROUNDS: usize = 21;

/// How every document's figures were taken.
const METHOD: &str = "interleaved rounds: round r starts with side r mod 2, so each side of a \
    pair runs first in every other round; a sample is a batch of calls lasting at least 1 ms; \
    min_us and median_us are per call over the case's rounds (5 to 21, as many as fit in 1 s \
    per side); speedup is the ratio of the two sides' min_us; allocs_per_op and bytes_per_op \
    count one warm call under the counting allocator";

/// One side's per-call time over a case's rounds, in microseconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Timing {
    /// The fastest round.
    pub min_us: f64,
    /// The median round.
    pub median_us: f64,
}

/// Times `sides` over interleaved rounds; returns the number of rounds
/// and each side's timing, in the order given. See the module doc.
pub fn interleave(sides: &mut [&mut dyn FnMut()]) -> (usize, Vec<Timing>) {
    let mut batches = Vec::with_capacity(sides.len());
    let mut longest = SAMPLE;
    for side in sides.iter_mut() {
        let mut batch = 1;
        loop {
            let took = run_batch(&mut **side, batch);
            if took >= SAMPLE {
                longest = longest.max(took);
                break;
            }
            batch *= 2;
        }
        batches.push(batch);
    }
    let fit = (ROUND_BUDGET.as_secs_f64() / longest.as_secs_f64()) as usize;
    let rounds = fit.clamp(MIN_ROUNDS, MAX_ROUNDS);
    let mut samples = vec![Vec::with_capacity(rounds); sides.len()];
    for round in 0..rounds {
        for k in 0..sides.len() {
            let i = (round + k) % sides.len();
            let took = run_batch(&mut *sides[i], batches[i]);
            samples[i].push(took.as_secs_f64() * 1e6 / batches[i] as f64);
        }
    }
    let timings = samples
        .into_iter()
        .map(|mut s| {
            s.sort_by(f64::total_cmp);
            Timing {
                min_us: s[0],
                median_us: s[s.len() / 2],
            }
        })
        .collect();
    (rounds, timings)
}

fn run_batch(f: &mut dyn FnMut(), batch: usize) -> Duration {
    let start = Instant::now();
    for _ in 0..batch {
        f();
    }
    start.elapsed()
}

/// How a bench binary was started.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Mode {
    /// `-- --test`: each case once, unmeasured, under the allocation
    /// gate.
    Test,
    /// `BENCH_JSON=<path>`: time every case and write the document.
    Write(PathBuf),
    /// Neither: time and print every case.
    Print,
}

impl Mode {
    /// The mode the environment and the command line select.
    pub fn from_env() -> Mode {
        if let Some(path) = std::env::var_os("BENCH_JSON") {
            Mode::Write(path.into())
        } else if std::env::args().any(|a| a == "--test") {
            Mode::Test
        } else {
            Mode::Print
        }
    }
}

/// One bench binary's run: its cases, in the mode it was started in.
pub struct Bench {
    name: String,
    /// The committed document the allocation gate reads.
    file: PathBuf,
    mode: Mode,
    committed: Option<Value>,
    ungated: Vec<&'static str>,
    notes: Vec<(String, Value)>,
    cases: Vec<(String, Value)>,
}

impl Bench {
    /// The harness of bench `name`, whose committed document is `file`
    /// at the repository root, in the mode [`Mode::from_env`] selects.
    pub fn from_env(name: &str, file: &str) -> Bench {
        let crate_dir = Path::new(env!("CARGO_MANIFEST_DIR"));
        let root = crate_dir
            .ancestors()
            .nth(2)
            .expect("crates/bench is two levels deep");
        Bench::new(name, root.join(file), Mode::from_env())
    }

    /// The harness of bench `name` with its committed document at
    /// `file`, in `mode`. Only [`Mode::Test`] reads the document; a
    /// missing one leaves the allocation gate with nothing to compare.
    pub fn new(name: &str, file: impl Into<PathBuf>, mode: Mode) -> Bench {
        let file = file.into();
        let committed = match mode {
            Mode::Test => std::fs::read_to_string(&file).ok().map(|text| {
                serde_json::from_str_value(&text)
                    .unwrap_or_else(|e| panic!("{}: not JSON: {e}", file.display()))
            }),
            _ => None,
        };
        if mode == Mode::Test && committed.is_none() {
            println!("{name}: no {}, allocation gate skipped", file.display());
        }
        Bench {
            name: name.to_string(),
            file,
            mode,
            committed,
            ungated: Vec::new(),
            notes: Vec::new(),
            cases: Vec::new(),
        }
    }

    /// Exempts `cases` from the allocation gate: cases whose count
    /// depends on the pool's thread count (they fan out over rayon).
    pub fn ungated(mut self, cases: &[&'static str]) -> Bench {
        self.ungated.extend_from_slice(cases);
        self
    }

    /// Adds a top-level entry to the written document, such as an input
    /// shape.
    pub fn note(&mut self, key: &str, value: Value) {
        self.notes.push((key.to_string(), value));
    }

    /// Declares a case of one side.
    pub fn case<R>(&mut self, name: &str, mut f: impl FnMut() -> R) {
        self.run(
            name,
            &[""],
            &mut [&mut || {
                black_box(f());
            }],
        );
    }

    /// Declares a case of two sides doing the same job, `a` the one
    /// under study and `b` its baseline; the document's `speedup` is
    /// `b`'s min time over `a`'s.
    pub fn pair<A, B>(
        &mut self,
        name: &str,
        (a_label, mut a): (&str, impl FnMut() -> A),
        (b_label, mut b): (&str, impl FnMut() -> B),
    ) {
        self.run(
            name,
            &[a_label, b_label],
            &mut [
                &mut || {
                    black_box(a());
                },
                &mut || {
                    black_box(b());
                },
            ],
        );
    }

    /// Runs one case whose sides are `sides`, labelled `labels` (one
    /// empty label for a single side).
    fn run(&mut self, case: &str, labels: &[&str], sides: &mut [&mut dyn FnMut()]) {
        let title = |side: &str| title(&self.name, case, side);
        if self.mode == Mode::Test {
            for (side, f) in labels.iter().zip(sides.iter_mut()) {
                let ((), allocs) = count_allocs(f);
                let verdict = self.gate(case, side, allocs);
                println!("{}: ok ({} allocs{verdict})", title(side), allocs.count);
            }
            return;
        }
        let (rounds, timings) = interleave(sides);
        let mut entry = vec![("rounds".to_string(), Value::Int(rounds as i64))];
        for ((side, f), t) in labels.iter().zip(sides.iter_mut()).zip(&timings) {
            let ((), allocs) = count_allocs(f);
            println!(
                "{:<48} min {:>12.3} us  median {:>12.3} us  {:>7} allocs {:>9} B  ({rounds} rounds)",
                title(side),
                t.min_us,
                t.median_us,
                allocs.count,
                allocs.bytes
            );
            let fields = vec![
                ("min_us".to_string(), round(t.min_us, 1e3)),
                ("median_us".to_string(), round(t.median_us, 1e3)),
                ("allocs_per_op".to_string(), Value::Int(allocs.count as i64)),
                ("bytes_per_op".to_string(), Value::Int(allocs.bytes as i64)),
            ];
            match *side {
                "" => entry.extend(fields),
                _ => entry.push((side.to_string(), Value::Object(fields))),
            }
        }
        if let [a, b] = timings[..] {
            let speedup = b.min_us / a.min_us;
            println!("{:<48} speedup {speedup:.2}x", title(""));
            entry.push(("speedup".to_string(), round(speedup, 1e2)));
        }
        self.cases.push((case.to_string(), Value::Object(entry)));
    }

    /// Checks one side's count against the committed document; returns
    /// how the count was judged, for the smoke's report.
    fn gate(&self, case: &str, side: &str, allocs: Allocs) -> String {
        if self.ungated.contains(&case) {
            return ", ungated".into();
        }
        let Some(doc) = &self.committed else {
            return String::new();
        };
        let entry = doc.get("cases").and_then(|c| c.get(case));
        let entry = match side {
            "" => entry,
            _ => entry.and_then(|e| e.get(side)),
        };
        let committed = match entry.and_then(|e| e.get("allocs_per_op")) {
            Some(Value::Int(n)) => *n as u64,
            _ => panic!(
                "{}: no allocs_per_op committed in {}; regenerate it",
                title(&self.name, case, side),
                self.file.display()
            ),
        };
        assert!(
            allocs.count <= committed,
            "{}: {} allocations per call, {committed} committed in {}",
            title(&self.name, case, side),
            allocs.count,
            self.file.display()
        );
        format!(" <= {committed} committed")
    }

    /// Ends the run: writes the document in [`Mode::Write`].
    pub fn finish(self) {
        let Mode::Write(path) = &self.mode else {
            return;
        };
        let file = self.file.file_name().map_or_else(
            || self.file.display().to_string(),
            |f| f.to_string_lossy().into_owned(),
        );
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        let mut doc = vec![
            (
                "_generated_by".to_string(),
                Value::Str(format!(
                    "BENCH_JSON=$PWD/{file} cargo bench -p bench --bench {}",
                    self.name
                )),
            ),
            ("cores".to_string(), Value::Int(cores as i64)),
            ("commit".to_string(), Value::Str(commit())),
            ("method".to_string(), Value::Str(METHOD.into())),
        ];
        doc.extend(self.notes);
        doc.push(("cases".to_string(), Value::Object(self.cases)));
        let text = serde_json::to_string_pretty(&Value::Object(doc)).expect("render") + "\n";
        std::fs::write(path, text).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
        eprintln!("{}: wrote {}", self.name, path.display());
    }
}

/// `bench/case`, or `bench/case side` for one side of a pair.
fn title(bench: &str, case: &str, side: &str) -> String {
    match side {
        "" => format!("{bench}/{case}"),
        _ => format!("{bench}/{case} {side}"),
    }
}

fn round(x: f64, scale: f64) -> Value {
    Value::Float((x * scale).round() / scale)
}

/// The checked-out commit, or `unknown` outside a git checkout.
fn commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}
