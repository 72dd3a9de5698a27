//! A map whose work is too small to pay for a pool handoff runs on the
//! caller: it takes no worker token, queues no job and never starts the
//! pool, even when one of its items stalls. This is its own test binary
//! so the process-wide gauges start at zero and no other test's map can
//! move them.

use rayon::diagnostics;
use rayon::prelude::*;

#[test]
fn short_maps_never_reach_the_pool() {
    // Shaped like a script sweep: eight short bodies.
    let sums: Vec<usize> = (0..8)
        .into_par_iter()
        .map(|i| (0..50).map(|j| j * i).sum())
        .collect();
    assert_eq!(sums, (0..8).map(|i| 1225 * i).collect::<Vec<_>>());
    let words = ["alpha", "beta", "gamma", "delta"];
    let lens: usize = words.par_iter().map(|w| w.len()).sum();
    assert_eq!(lens, 19);
    let mut cells = vec![0usize; 40];
    cells.par_chunks_mut(8).enumerate().for_each(|(c, chunk)| {
        chunk.iter_mut().for_each(|v| *v = c);
    });
    assert_eq!(cells[39], 4);
    assert_eq!(diagnostics::handoffs(), 0);
    assert_eq!(diagnostics::peak_workers(), 0);
    assert_eq!(diagnostics::pool_threads(), 0);
}

/// Busy-waits for `micros` microseconds.
fn spin(micros: u64) {
    let start = std::time::Instant::now();
    while start.elapsed() < std::time::Duration::from_micros(micros) {
        std::hint::spin_loop();
    }
}

#[test]
fn one_stalled_item_does_not_split_a_short_map() {
    // Eight trivial items, one of which stalls once: the first for a
    // third of a handoff, or a later one for more than a handoff. Timed
    // by their mean, either would predict enough work left to split.
    for stalled in [(0, 35), (1, 150)] {
        let values: Vec<usize> = (0..8usize)
            .into_par_iter()
            .map(|i| {
                if i == stalled.0 {
                    spin(stalled.1);
                }
                i * 2
            })
            .collect();
        assert_eq!(values, (0..8).map(|i| i * 2).collect::<Vec<_>>());
    }
    assert_eq!(diagnostics::handoffs(), 0);
    assert_eq!(diagnostics::pool_threads(), 0);
}
