//! Columnar profile store microbenchmarks.
//!
//! Compares the flat-arena `perfdmf::Profile` (interned O(1) name
//! lookups, contiguous column views) against a faithful replica of the
//! seed's storage layout — one `Vec` per event holding one `Vec` per
//! metric holding one `Vec` per thread, with linear name scans and
//! per-cell checked access — at the paper-scale shape of 500 events ×
//! 4 metrics × 128 threads. The pairs `name_lookup_in_loop` and
//! `column_scan` have sides `columnar` and `seed`; before any case runs,
//! both sides of each must compute the same sum. `derive_metric`
//! includes cloning its input trial, since a derivation adds a metric
//! to the trial it is given. The harness and its modes are in
//! `bench::measure`; this bench writes `BENCH_profile_store.json`.

use bench::measure::{Bench, CountingAlloc};
use perfdmf::algebra::merge;
use perfdmf::{Event, Measurement, Metric, Profile, ThreadId, Trial, TrialBuilder};
use perfexplorer::derive::{derive_metric, DeriveOp};
use std::hint::black_box;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const EVENTS: usize = 500;
const METRICS: usize = 4;
const THREADS: usize = 128;

const METRIC_NAMES: [&str; METRICS] = ["TIME", "CPU_CYCLES", "FP_OPS", "BACK_END_BUBBLE_ALL"];

// Realistic TAU callpath names: deep paths sharing a long prefix, the
// shape that makes linear name scans expensive on real profiles.
fn event_name(e: usize) -> String {
    format!("main => timestep => diff_coeff => exchange_var => region_{e:03}")
}

fn cell(e: usize, m: usize, t: usize) -> Measurement {
    let v = ((e * 31 + m * 17 + t * 7) % 1000) as f64 + 1.0;
    Measurement {
        inclusive: v * 2.0,
        exclusive: v,
        calls: 1.0,
        subcalls: 0.0,
    }
}

/// The seed's event record: a name plus an optional kind tag, scanned
/// as a struct (48-byte stride) exactly as the seed's `Vec<Event>` was.
struct SeedEvent {
    name: String,
    #[allow(dead_code)]
    kind: Option<String>,
}

/// The seed's nested storage layout: names resolved by linear scan,
/// cells reached through three levels of checked indexing.
struct SeedProfile {
    metric_names: Vec<String>,
    events: Vec<SeedEvent>,
    data: Vec<Vec<Vec<Measurement>>>,
}

impl SeedProfile {
    fn build() -> Self {
        SeedProfile {
            metric_names: METRIC_NAMES.iter().map(|s| s.to_string()).collect(),
            events: (0..EVENTS)
                .map(|e| SeedEvent {
                    name: event_name(e),
                    kind: None,
                })
                .collect(),
            data: (0..EVENTS)
                .map(|e| {
                    (0..METRICS)
                        .map(|m| (0..THREADS).map(|t| cell(e, m, t)).collect())
                        .collect()
                })
                .collect(),
        }
    }

    /// The seed's `TrialResult::event_names`: a fresh `Vec<String>` of
    /// cloned names, the list its analysis loops iterated.
    fn event_names(&self) -> Vec<String> {
        self.events.iter().map(|e| e.name.clone()).collect()
    }

    fn metric_id(&self, name: &str) -> Option<usize> {
        self.metric_names.iter().position(|m| m == name)
    }

    fn event_id(&self, name: &str) -> Option<usize> {
        self.events.iter().position(|e| e.name == name)
    }

    fn get(&self, e: usize, m: usize, t: usize) -> Option<&Measurement> {
        self.data.get(e)?.get(m)?.get(t)
    }

    /// The seed's analysis-layer column accessor
    /// (`TrialResult::exclusive`): names resolved by linear scan, the
    /// column copied into a fresh `Vec<f64>` per call.
    fn exclusive(&self, event: &str, metric: &str) -> Option<Vec<f64>> {
        let e = self.event_id(event)?;
        let m = self.metric_id(metric)?;
        Some(self.data[e][m].iter().map(|c| c.exclusive).collect())
    }
}

fn columnar_profile() -> Profile {
    let mut p = Profile::new((0..THREADS as u32).map(ThreadId::flat).collect());
    let metrics: Vec<_> = METRIC_NAMES
        .iter()
        .map(|n| p.add_metric(Metric::measured(*n)).unwrap())
        .collect();
    for e in 0..EVENTS {
        let ev = p.add_event(Event::new(event_name(e))).unwrap();
        for (m, &mid) in metrics.iter().enumerate() {
            for t in 0..THREADS {
                p.set(ev, mid, t, cell(e, m, t)).unwrap();
            }
        }
    }
    p
}

fn columnar_trial() -> Trial {
    let mut b = TrialBuilder::with_flat_threads("bench", THREADS);
    let metrics: Vec<_> = METRIC_NAMES.iter().map(|n| b.metric(n)).collect();
    let main = b.event("main");
    for (m, &mid) in metrics.iter().enumerate() {
        for t in 0..THREADS {
            b.set(main, mid, t, cell(0, m, t));
        }
    }
    for e in 0..EVENTS {
        let ev = b.event(&event_name(e));
        for (m, &mid) in metrics.iter().enumerate() {
            for t in 0..THREADS {
                b.set(ev, mid, t, cell(e, m, t));
            }
        }
    }
    b.build()
}

/// Four-accumulator sums, used identically on both sides of the column
/// scan so the serial f64 add chain does not mask the extraction cost.
fn fold4_f64(values: &[f64]) -> f64 {
    let (mut a0, mut a1, mut a2, mut a3) = (0.0, 0.0, 0.0, 0.0);
    let chunks = values.chunks_exact(4);
    let rem: f64 = chunks.remainder().iter().sum();
    for c in chunks {
        a0 += c[0];
        a1 += c[1];
        a2 += c[2];
        a3 += c[3];
    }
    a0 + a1 + a2 + a3 + rem
}

fn fold4_exclusive(col: &[Measurement]) -> f64 {
    let (mut a0, mut a1, mut a2, mut a3) = (0.0, 0.0, 0.0, 0.0);
    let chunks = col.chunks_exact(4);
    let rem: f64 = chunks.remainder().iter().map(|c| c.exclusive).sum();
    for c in chunks {
        a0 += c[0].exclusive;
        a1 += c[1].exclusive;
        a2 += c[2].exclusive;
        a3 += c[3].exclusive;
    }
    a0 + a1 + a2 + a3 + rem
}

/// Name-lookup-in-loop, the access pattern of pre-refactor analysis
/// loops: resolve every event name and read one cell.
fn seed_lookup(seed: &SeedProfile, names: &[String]) -> f64 {
    let m = seed.metric_id("TIME").unwrap();
    let mut acc = 0.0;
    for name in names {
        let e = seed.event_id(black_box(name)).unwrap();
        acc += seed.get(e, m, 0).unwrap().exclusive;
    }
    acc
}

fn columnar_lookup(columnar: &Profile, names: &[String]) -> f64 {
    let m = columnar.metric_id("TIME").unwrap();
    let mut acc = 0.0;
    for name in names {
        let e = columnar.event_id(black_box(name)).unwrap();
        acc += columnar.get(e, m, 0).unwrap().exclusive;
    }
    acc
}

/// Column scan: reduce every event's TIME column — the feature
/// extraction loop of the load-balance and clustering analyses. The
/// seed's analysis loops cloned the event-name list, then resolved
/// both names by linear scan and copied the column into a fresh
/// `Vec<f64>` per event.
fn seed_scan(seed: &SeedProfile) -> f64 {
    let names = seed.event_names();
    let mut acc = 0.0;
    for name in &names {
        let values = seed.exclusive(black_box(name), "TIME").unwrap();
        acc += fold4_f64(&values);
    }
    acc
}

/// The columnar analysis loops drive ids directly — no name
/// resolution, no per-column copy.
fn columnar_scan(columnar: &Profile) -> f64 {
    let m = columnar.metric_id("TIME").unwrap();
    let mut acc = 0.0;
    for ei in 0..black_box(columnar.event_count()) {
        let e = perfdmf::EventId(ei as u32);
        acc += fold4_exclusive(columnar.column(e, m));
    }
    acc
}

fn main() {
    // Derivation fans out over events on the rayon pool.
    let mut b =
        Bench::from_env("profile_store", "BENCH_profile_store.json").ungated(&["derive_metric"]);
    let names: Vec<String> = (0..EVENTS).map(event_name).collect();
    let seed = SeedProfile::build();
    let columnar = columnar_profile();
    assert_eq!(
        seed_lookup(&seed, &names),
        columnar_lookup(&columnar, &names)
    );
    assert_eq!(seed_scan(&seed), columnar_scan(&columnar));
    b.pair(
        "name_lookup_in_loop",
        ("columnar", || columnar_lookup(&columnar, &names)),
        ("seed", || seed_lookup(&seed, &names)),
    );
    b.pair(
        "column_scan",
        ("columnar", || columnar_scan(&columnar)),
        ("seed", || seed_scan(&seed)),
    );

    // Derived metric over the full profile (real API).
    let trial = columnar_trial();
    b.case("derive_metric", || {
        let mut t = trial.clone();
        derive_metric(
            &mut t,
            "BACK_END_BUBBLE_ALL",
            DeriveOp::Divide,
            "CPU_CYCLES",
        )
        .unwrap();
        t
    });
    // Profile algebra merge of two full-size profiles (real API).
    let other = columnar_profile();
    b.case("algebra_merge", || {
        merge(black_box(&columnar), black_box(&other)).unwrap()
    });
    b.finish();
}
