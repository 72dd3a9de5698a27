//! Seeded synthetic OpenMP-style profiles.
//!
//! Every trial has the §III-A shape the load-balance rules look for —
//! a `solve` loop whose threads wait for an uneven inner `sweep`, so the
//! two regions' per-thread times are anti-correlated — padded with
//! small `phase`/`kernel` regions up to the requested event count. The
//! padding sets the size of the facts, nested-pair sweep and rule match
//! without adding diagnoses.

use perfdmf::{EventId, Measurement, MetricId, Trial, TrialBuilder};
use rand::prelude::*;

/// Threads per trial.
pub const THREADS: usize = 16;

fn cell(inclusive: f64, exclusive: f64) -> Measurement {
    Measurement {
        inclusive,
        exclusive,
        calls: 1.0,
        subcalls: 0.0,
    }
}

/// How unevenly one run spreads the `sweep` loop over its threads: a
/// balanced run has a small skew, an imbalanced one a skew well past
/// the rules' 0.25 stddev/mean ratio.
pub struct Imbalance {
    skew: f64,
    weights: Vec<f64>,
}

impl Imbalance {
    pub fn draw(rng: &mut StdRng, imbalanced: bool) -> Imbalance {
        let skew = if imbalanced {
            rng.random_range(0.5..0.9)
        } else {
            rng.random_range(0.02..0.1)
        };
        let weights = (0..THREADS).map(|_| rng.random_range(-1.0..1.0)).collect();
        Imbalance { skew, weights }
    }

    /// Per-thread `(sweep, solve wait)` times around `base`: threads
    /// that finish the sweep early wait longer in `solve`.
    pub fn split(&self, rng: &mut StdRng, base: f64) -> Vec<(f64, f64)> {
        self.weights
            .iter()
            .map(|w| {
                let sweep = base * (1.0 + self.skew * w) * rng.random_range(0.97..1.03);
                let wait =
                    base * (1.0 + self.skew) * 1.03 - sweep + rng.random_range(0.0..0.05 * base);
                (sweep, wait)
            })
            .collect()
    }
}

/// Name of the `k`-th padding event among `fillers` of them: the first
/// eighth are `phase` regions, the rest `kernel`s nested under them.
pub fn filler_name(k: usize, fillers: usize) -> String {
    let phases = (fillers / 8).max(1);
    let p = k % phases;
    if k < phases {
        format!("main => phase{p}")
    } else {
        format!("main => phase{p} => kernel{k}")
    }
}

/// Whether the `i`-th trial of a workload is imbalanced: three in
/// five, in a fixed pattern, so the share of trials the rules diagnose
/// does not depend on the seed.
pub fn imbalanced(i: usize) -> bool {
    i % 5 < 3
}

/// A trial of `events` events (at least the three structural ones).
pub fn trial(rng: &mut StdRng, name: &str, events: usize, imbalanced: bool) -> Trial {
    let mut b = TrialBuilder::with_flat_threads(name, THREADS);
    let time = b.metric("TIME");
    let main = b.event("main");
    let solve = b.event("main => solve");
    let sweep = b.event("main => solve => sweep");
    let mut busy = vec![0.0; THREADS];
    let base = rng.random_range(20.0..40.0);
    let shape = Imbalance::draw(rng, imbalanced);
    for (t, (s, wait)) in shape.split(rng, base).into_iter().enumerate() {
        b.set(sweep, time, t, cell(s, s));
        b.set(solve, time, t, cell(s + wait, wait));
        busy[t] += s + wait;
    }
    let fillers = events.saturating_sub(3);
    for k in 0..fillers {
        let e = b.event(&filler_name(k, fillers));
        let mean = rng.random_range(0.01..0.3);
        for (t, total) in busy.iter_mut().enumerate() {
            let v = mean * rng.random_range(0.5..1.5);
            b.set(e, time, t, cell(v, v));
            *total += v;
        }
    }
    set_main(&mut b, main, time, rng, &busy);
    b.build()
}

fn set_main(b: &mut TrialBuilder, main: EventId, time: MetricId, rng: &mut StdRng, busy: &[f64]) {
    for (t, &inside) in busy.iter().enumerate() {
        let own = rng.random_range(1.0..2.0);
        b.set(main, time, t, cell(inside + own, own));
    }
}
