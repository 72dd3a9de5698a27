//! Differential tests pinning the streaming pipeline to the batch
//! reference: random chunk interleavings (duplicates, out-of-order
//! sequence numbers, NaN cells, out-of-range threads included) and
//! adversarial callpath names arriving descendants-first must leave the
//! incrementally maintained analysis bitwise equal to a full batch
//! recompute after EVERY chunk, and the rendered report independent of
//! arrival order.

use perfexplorer::incremental::AnalysisState;
use perfexplorer::loadbalance;
use perfexplorer::workflow::analyze_load_balance;

use perfdmf::{ChunkBatch, ColumnDelta, Measurement, StreamingTrial};

/// Hand-rolled deterministic RNG — same idiom as the statistics crate's
/// differential tests; no external proptest dependency.
struct XorShift64(u64);

impl XorShift64 {
    fn new(seed: u64) -> Self {
        XorShift64(seed.max(1))
    }

    fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }

    fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// True with probability `percent`/100.
    fn chance(&mut self, percent: u64) -> bool {
        self.next_u64() % 100 < percent
    }

    fn pick(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

const THREADS: u32 = 8;

const EVENTS: &[&str] = &[
    "main",
    "main => init",
    "main => solve",
    "main => solve => halo",
    "main => solve => compute",
    "main => io",
    "main => solve => halo => pack",
];

fn cell(v: f64) -> Measurement {
    Measurement {
        inclusive: v,
        exclusive: v,
        calls: 1.0,
        subcalls: 0.0,
    }
}

fn delta(metric: &str, event: &str, cells: Vec<(u32, Measurement)>) -> ColumnDelta {
    ColumnDelta {
        metric: metric.into(),
        event: event.into(),
        event_kind: None,
        cells,
    }
}

/// Seed chunk: `main` over TIME on every thread, so the analysis has a
/// total runtime from the first byte.
fn seed_chunk(metrics: &[&str]) -> ChunkBatch {
    let mut deltas = Vec::new();
    for m in metrics {
        deltas.push(delta(
            m,
            "main",
            (0..THREADS).map(|t| (t, cell(100.0 + t as f64))).collect(),
        ));
    }
    ChunkBatch {
        seq: 0,
        threads: THREADS,
        deltas,
    }
}

fn random_chunk(rng: &mut XorShift64, seq: u64, metrics: &[&str]) -> ChunkBatch {
    let n_deltas = 1 + rng.pick(3);
    let mut deltas = Vec::new();
    for _ in 0..n_deltas {
        let event = EVENTS[rng.pick(EVENTS.len())];
        let metric = if metrics.len() > 1 && rng.chance(20) {
            metrics[1]
        } else {
            metrics[0]
        };
        let n_cells = 1 + rng.pick(4);
        let mut cells = Vec::new();
        for _ in 0..n_cells {
            // 3%: an out-of-range thread the ingest path must drop.
            let t = if rng.chance(3) {
                THREADS + rng.pick(4) as u32
            } else {
                rng.pick(THREADS as usize) as u32
            };
            // 2%: a NaN cell — quarantine interaction.
            let v = if rng.chance(2) {
                f64::NAN
            } else {
                rng.next_f64() * 10.0 - 2.0
            };
            cells.push((t, cell(v)));
        }
        deltas.push(delta(metric, event, cells));
    }
    ChunkBatch {
        seq,
        threads: THREADS,
        deltas,
    }
}

fn feq(a: f64, b: f64) -> bool {
    a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
}

fn assert_analysis_bitwise(
    incremental: &loadbalance::LoadBalanceAnalysis,
    batch: &loadbalance::LoadBalanceAnalysis,
    step: usize,
) {
    assert_eq!(
        incremental.observations.len(),
        batch.observations.len(),
        "observation count diverged at step {step}"
    );
    for (x, y) in incremental.observations.iter().zip(&batch.observations) {
        assert_eq!(
            x.event, y.event,
            "observation order diverged at step {step}"
        );
        assert!(
            feq(x.stddev_mean_ratio, y.stddev_mean_ratio)
                && feq(x.runtime_fraction, y.runtime_fraction)
                && feq(x.mean, y.mean),
            "observation for {} diverged at step {step}: {x:?} vs {y:?}",
            x.event
        );
    }
    assert_eq!(
        incremental.nested.len(),
        batch.nested.len(),
        "nested-pair count diverged at step {step}"
    );
    for (x, y) in incremental.nested.iter().zip(&batch.nested) {
        assert_eq!(
            (&x.outer, &x.inner),
            (&y.outer, &y.inner),
            "pair order diverged at step {step}"
        );
        assert!(
            feq(x.correlation, y.correlation),
            "correlation {}/{} diverged at step {step}: {} vs {}",
            x.outer,
            x.inner,
            x.correlation,
            y.correlation
        );
    }
}

#[test]
fn random_interleavings_stay_bitwise_equal_to_batch() {
    for seed in [0x5eed1u64, 0x5eed2, 0x5eed3, 0x5eed4] {
        let mut rng = XorShift64::new(seed);
        let first = seed_chunk(&["TIME"]);
        let (mut st, _) = StreamingTrial::from_batch("stream", &first).expect("seed chunk");
        let mut state = AnalysisState::new(st.trial(), "TIME").expect("initial state");
        let mut history = vec![first];

        for step in 0..60 {
            // 10%: re-send an earlier chunk verbatim (duplicate seq —
            // must dedup to a no-op). Otherwise: a fresh chunk, with
            // out-of-order seq numbers 15% of the time.
            let chunk = if rng.chance(10) {
                history[rng.pick(history.len())].clone()
            } else {
                let seq = if rng.chance(15) {
                    1_000_000 + rng.next_u64() % 1000
                } else {
                    history.len() as u64
                };
                let c = random_chunk(&mut rng, seq, &["TIME"]);
                history.push(c.clone());
                c
            };
            let applied = st.apply_chunk(&chunk).expect("apply");
            state.update(st.trial(), &applied).expect("update");

            let batch = loadbalance::analyze(st.trial(), "TIME").expect("batch analyze");
            assert_analysis_bitwise(&state.analysis(), &batch, step);

            if rng.chance(25) {
                let strict = analyze_load_balance(st.trial(), "TIME").expect("strict workflow");
                let inc = state.report().expect("incremental report");
                assert_eq!(
                    strict.rendered, inc.rendered,
                    "rendered report diverged at step {step}"
                );
            }
        }
    }
}

#[test]
fn rendered_report_is_arrival_order_independent() {
    // A crash recovery replays journaled chunks and then takes late
    // redeliveries, so it interns events in a different order than the
    // uninterrupted run saw them. The rendered diagnosis must not
    // depend on that order: facts are asserted in event-name order,
    // not arena order.
    let chunks = [
        ChunkBatch {
            seq: 0,
            threads: 4,
            deltas: vec![delta(
                "TIME",
                "main",
                (0..4).map(|t| (t, cell(50.0))).collect(),
            )],
        },
        ChunkBatch {
            seq: 1,
            threads: 4,
            deltas: vec![delta(
                "TIME",
                "main => a",
                vec![
                    (0, cell(1.0)),
                    (1, cell(1.0)),
                    (2, cell(1.0)),
                    (3, cell(40.0)),
                ],
            )],
        },
        ChunkBatch {
            seq: 2,
            threads: 4,
            deltas: vec![delta(
                "TIME",
                "main => b",
                vec![
                    (0, cell(40.0)),
                    (1, cell(1.0)),
                    (2, cell(1.0)),
                    (3, cell(1.0)),
                ],
            )],
        },
    ];
    let render = |order: &[usize]| {
        let (mut st, _) = StreamingTrial::from_batch("t", &chunks[order[0]]).expect("bootstrap");
        for &i in &order[1..] {
            st.apply_chunk(&chunks[i]).expect("apply");
        }
        analyze_load_balance(st.trial(), "TIME")
            .expect("workflow")
            .rendered
    };
    let forward = render(&[0, 1, 2]);
    let reversed = render(&[0, 2, 1]);
    assert!(
        forward.contains("main => a") && forward.contains("main => b"),
        "expected both regions diagnosed:\n{forward}"
    );
    assert_eq!(
        forward, reversed,
        "rendered report depends on chunk arrival order"
    );
}

/// Callpath names that stress the ancestor lookup: `a` beside `ab`
/// (a prefix that is not an ancestor), overlapping separators, the
/// empty name, a trailing separator and a deep chain.
fn adversarial_names() -> Vec<String> {
    let mut names: Vec<String> = [
        "main => a",
        "main => ab",
        "main => a => x",
        "main => ab => x",
        "main => a => ",
        "main => => a",
        "",
        " =>",
        " => ",
        " => => ",
        " => => x",
    ]
    .iter()
    .map(|n| n.to_string())
    .collect();
    let mut chain = "main".to_string();
    for depth in 0..10 {
        chain = format!("{chain} => d{depth}");
        names.push(chain.clone());
    }
    names
}

#[test]
fn adversarial_names_stream_bitwise_equal_to_batch() {
    const T: u32 = 4;
    for seed in [0xa1u64, 0xa2, 0xa3, 0xa4, 0xa5, 0xa6] {
        let mut rng = XorShift64::new(seed);
        let mut order = adversarial_names();
        if seed == 0xa1 {
            // Every descendant strictly before each of its ancestors.
            order.sort_by_key(|n| std::cmp::Reverse(n.len()));
        } else {
            for i in (1..order.len()).rev() {
                order.swap(i, rng.pick(i + 1));
            }
        }

        let first = ChunkBatch {
            seq: 0,
            threads: T,
            deltas: vec![delta(
                "TIME",
                "main",
                (0..T).map(|t| (t, cell(500.0 + t as f64))).collect(),
            )],
        };
        let (mut st, _) = StreamingTrial::from_batch("adversarial", &first).expect("seed chunk");
        let mut state = AnalysisState::new(st.trial(), "TIME").expect("initial state");
        let mut seen: Vec<String> = Vec::new();
        let mut pending = order.into_iter();
        let mut seq = 0;
        loop {
            // One to three new names per chunk, plus now and then a
            // rewrite of a name already streamed.
            let mut events: Vec<String> = pending.by_ref().take(1 + rng.pick(3)).collect();
            if events.is_empty() {
                break;
            }
            seen.extend(events.iter().cloned());
            if rng.chance(40) {
                events.push(seen[rng.pick(seen.len())].clone());
            }
            seq += 1;
            let deltas = events
                .iter()
                .map(|e| {
                    let cells = (0..T).map(|t| (t, cell(rng.next_f64() * 20.0))).collect();
                    delta("TIME", e, cells)
                })
                .collect();
            let chunk = ChunkBatch {
                seq,
                threads: T,
                deltas,
            };
            let applied = st.apply_chunk(&chunk).expect("apply");
            state.update(st.trial(), &applied).expect("update");

            let batch = loadbalance::analyze(st.trial(), "TIME").expect("batch analyze");
            assert_analysis_bitwise(&state.analysis(), &batch, seq as usize);
        }
        // The stream paired every overlapping ancestor.
        let nested = state.analysis().nested;
        assert!(nested
            .iter()
            .any(|n| n.outer == " =>" && n.inner == " => => "));
        assert!(nested
            .iter()
            .any(|n| n.outer.is_empty() && n.inner == " => => x"));
        assert!(!nested
            .iter()
            .any(|n| n.outer == "main => a" && n.inner == "main => ab => x"));
    }
}
