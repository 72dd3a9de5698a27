//! Seeded randomness, order statistics, and process readings from
//! `/proc` — the benchmark's only dependencies beyond the repository.

use rand::prelude::*;
use std::path::{Path, PathBuf};
use std::time::Duration;

/// An independent generator for one purpose (trial shapes, request
/// picks, ...), so adding draws to one stream leaves the others
/// unchanged. Within one seed the streams differ by their fixed ids.
pub fn rng(seed: u64, stream: u64) -> StdRng {
    StdRng::seed_from_u64(seed ^ stream)
}

/// Fisher-Yates shuffle.
pub fn shuffle<T>(rng: &mut StdRng, items: &mut [T]) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.random_range(0..=i));
    }
}

/// Zipf-distributed ranks `0..n` with exponent `s`: rank 0 is the most
/// popular item.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Zipf {
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for k in 1..=n {
            acc += 1.0 / (k as f64).powf(s);
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut StdRng) -> usize {
        let u: f64 = rng.random();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

/// Nearest-rank percentile of an ascending slice, `p` in `[0, 1]`.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Process CPU time (user + system, every thread) from
/// `/proc/self/stat`. The kernel reports it in USER_HZ ticks, which is
/// 100 per second on Linux.
pub fn process_cpu() -> Duration {
    const USER_HZ: u64 = 100;
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name (field 2) may contain spaces; fields after the
    // closing parenthesis are space-separated, utime and stime being
    // fields 14 and 15 of the whole line.
    let after = stat.rsplit_once(')').map(|(_, rest)| rest).unwrap_or("");
    let fields: Vec<&str> = after.split_whitespace().collect();
    let tick = |i: usize| {
        fields
            .get(i)
            .and_then(|v| v.parse::<u64>().ok())
            .unwrap_or(0)
    };
    let ticks = tick(11) + tick(12);
    Duration::from_millis(ticks * 1000 / USER_HZ)
}

/// Resets the peak resident set size to the current one, so a later
/// `peak_rss_mb` covers only what runs after this call. Returns whether
/// the kernel accepted the reset.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Peak resident set size (`VmHWM`) in MiB, from `/proc/self/status`.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// The checked-out commit, read from `.git` without running git; the
/// benchmark may run from an export that has no `.git` at all.
pub fn commit() -> String {
    let read = |p: &str| std::fs::read_to_string(Path::new(".git").join(p)).ok();
    let Some(head) = read("HEAD") else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Some(id) = read(reference) {
        return id.trim().to_string();
    }
    read("packed-refs")
        .and_then(|packed| {
            packed
                .lines()
                .find_map(|l| l.strip_suffix(reference).map(|id| id.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".into())
}

/// A scratch directory under `.perfbench/` in the working directory,
/// removed when dropped.
pub struct WorkDir(PathBuf);

impl WorkDir {
    pub fn create(label: &str) -> std::io::Result<WorkDir> {
        let dir = PathBuf::from(".perfbench").join(format!("{label}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        Ok(WorkDir(dir))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
    }

    #[test]
    fn rng_streams_repeat_for_a_seed() {
        let draw = |seed, stream| {
            let mut r = rng(seed, stream);
            (0..8).map(|_| r.random::<u64>()).collect::<Vec<_>>()
        };
        assert_eq!(draw(7, 3), draw(7, 3));
        assert_ne!(draw(7, 3), draw(8, 3));
        assert_ne!(draw(7, 3), draw(7, 2));
    }

    #[test]
    fn zipf_prefers_low_ranks() {
        let z = Zipf::new(100, 1.0);
        let mut r = rng(1, 0);
        let hits = (0..10_000).filter(|_| z.sample(&mut r) < 10).count();
        assert!(hits > 5_000, "{hits}");
    }
}
