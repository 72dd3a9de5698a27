//! Offline stand-in for `rayon`.
//!
//! Implements the slice/range data-parallel subset the workspace uses —
//! `par_iter()` / `into_par_iter()` followed by `map(...).collect()`,
//! `map(...).sum()` or `for_each(...)` — with real parallelism where it
//! pays, preserving input order in the collected output. The caller
//! runs items inline, in order, timing them, and hands the pool nothing
//! until the work it predicts is left would save more than a pool
//! handoff costs; a map of a few microsecond-scale items (a script
//! sweep's bodies, a small trial's per-event kernels) runs entirely on
//! the caller. Once a split pays, the remaining items are cut into one
//! contiguous chunk per granted worker: the caller processes the first
//! chunk itself; the others go to a process-wide pool of
//! [`concurrency_budget`] long-lived threads, started by the first call
//! that splits. The caller then blocks until every chunk it handed out
//! is done, so chunks may borrow from the caller's stack just as scoped
//! threads could. There is no work-stealing; for the
//! embarrassingly-parallel loops this workspace runs (per-event analysis
//! kernels, script sweep bodies), static chunking is within noise of a
//! real scheduler.
//!
//! A call hands the pool at most as many chunks as it holds worker
//! tokens, and the pool has one thread per token of the budget. Every
//! queued or running chunk holds a token, so a queued chunk always has
//! a thread free to take it, even when pool threads block in nested
//! calls; a caller that gets no token keeps running its items inline.

use std::collections::VecDeque;
use std::marker::PhantomData;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, Once, PoisonError};
use std::time::{Duration, Instant};

/// The global concurrency budget: the maximum number of worker tokens
/// held at any moment across every concurrent `par_iter` call in the
/// process, and the size of the thread pool that runs them. Overridden
/// by the `RAYON_NUM_THREADS` environment variable (read once),
/// defaulting to the core count.
pub fn concurrency_budget() -> usize {
    static BUDGET: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *BUDGET.get_or_init(|| {
        if let Some(v) = std::env::var("RAYON_NUM_THREADS")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
        {
            return v.max(1);
        }
        std::thread::available_parallelism()
            .map(|v| v.get())
            .unwrap_or(1)
    })
}

/// Worker tokens held (global): pool jobs queued or running. Callers'
/// own threads do not count: a caller that gets no tokens processes
/// its items inline, so nested or massively concurrent calls degrade to
/// sequential instead of oversubscribing.
static LIVE_WORKERS: AtomicUsize = AtomicUsize::new(0);
/// High-water mark of [`LIVE_WORKERS`], for regression tests.
static PEAK_WORKERS: AtomicUsize = AtomicUsize::new(0);
/// Pool threads started so far.
static POOL_THREADS: AtomicUsize = AtomicUsize::new(0);
/// Maps split over the pool so far.
static HANDOFFS: AtomicUsize = AtomicUsize::new(0);

/// Test-facing observability for the concurrency budget.
#[doc(hidden)]
pub mod diagnostics {
    use super::{Ordering, HANDOFFS, LIVE_WORKERS, PEAK_WORKERS, POOL_THREADS};

    /// Pool jobs currently holding a worker token.
    pub fn live_workers() -> usize {
        LIVE_WORKERS.load(Ordering::SeqCst)
    }

    /// Highest number of worker tokens held at once since the last
    /// [`reset_peak`].
    pub fn peak_workers() -> usize {
        PEAK_WORKERS.load(Ordering::SeqCst)
    }

    /// Resets the high-water mark.
    pub fn reset_peak() {
        PEAK_WORKERS.store(0, Ordering::SeqCst);
    }

    /// Pool threads started in this process: zero until the first call
    /// whose predicted saving pays for a handoff, then the budget, for
    /// good.
    pub fn pool_threads() -> usize {
        POOL_THREADS.load(Ordering::SeqCst)
    }

    /// Calls in this process that split their remaining items over the
    /// pool (each queued at least one job).
    pub fn handoffs() -> usize {
        HANDOFFS.load(Ordering::SeqCst)
    }
}

/// Tries to reserve up to `want` worker tokens from the global budget,
/// returning how many were actually granted (possibly zero). Never
/// blocks: a caller that cannot get tokens runs inline, which keeps
/// nested calls deadlock-free.
fn acquire_workers(want: usize) -> usize {
    let budget = concurrency_budget();
    loop {
        let live = LIVE_WORKERS.load(Ordering::SeqCst);
        let granted = want.min(budget.saturating_sub(live));
        if granted == 0 {
            return 0;
        }
        if LIVE_WORKERS
            .compare_exchange(live, live + granted, Ordering::SeqCst, Ordering::SeqCst)
            .is_ok()
        {
            PEAK_WORKERS.fetch_max(live + granted, Ordering::SeqCst);
            return granted;
        }
    }
}

fn release_workers(count: usize) {
    LIVE_WORKERS.fetch_sub(count, Ordering::SeqCst);
}

/// Locks a mutex, ignoring poison: every update made under this
/// module's locks (a queue push or pop, a counter decrement) leaves the
/// data valid at each step, and jobs run with no lock held.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A unit of pool work. Jobs never unwind: each one catches its
/// chunk's panic and hands the payload back to its caller.
type Job = Box<dyn FnOnce() + Send + 'static>;

/// The pool's queue; its threads wait on [`READY`] for it to fill.
static JOBS: Mutex<VecDeque<Job>> = Mutex::new(VecDeque::new());
static READY: Condvar = Condvar::new();

/// Starts the pool's [`concurrency_budget`] threads, once per process.
fn start_pool() {
    static START: Once = Once::new();
    START.call_once(|| {
        for i in 0..concurrency_budget() {
            std::thread::Builder::new()
                .name(format!("rayon-shim-{i}"))
                .spawn(run_jobs)
                .expect("rayon shim: cannot start a pool thread");
            POOL_THREADS.fetch_add(1, Ordering::SeqCst);
        }
    });
}

/// A pool thread's whole life: take the oldest job, run it, repeat.
fn run_jobs() {
    loop {
        let job = {
            let mut jobs = lock(&JOBS);
            loop {
                match jobs.pop_front() {
                    Some(job) => break job,
                    None => jobs = READY.wait(jobs).unwrap_or_else(PoisonError::into_inner),
                }
            }
        };
        job();
    }
}

/// Counts one call's outstanding jobs down to zero. Shared by `Arc`, so
/// a job still returning from [`Latch::count_down`] never touches a
/// latch its caller has already dropped.
struct Latch {
    pending: Mutex<usize>,
    done: Condvar,
}

impl Latch {
    fn count_down(&self) {
        let mut pending = lock(&self.pending);
        *pending -= 1;
        if *pending == 0 {
            self.done.notify_all();
        }
    }

    fn wait(&self) {
        let mut pending = lock(&self.pending);
        while *pending > 0 {
            pending = self
                .done
                .wait(pending)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
}

/// Waits for a call's jobs when dropped, so the caller's frame (the
/// items, `f` and the result slots the jobs borrow) outlives them even
/// if the caller unwinds.
struct Join(Arc<Latch>);

impl Drop for Join {
    fn drop(&mut self) {
        self.0.wait();
    }
}

/// The predicted saving a map must offer before it hands items to the
/// pool. A handoff boxes and queues jobs, wakes a pool thread and
/// sleeps the caller on a latch until the job is done. On a 2-vCPU
/// host that round trip measured 15–32 µs of wall time and 12 µs of
/// CPU time (EXPERIMENTS.md, "PERF — adaptive pool handoff"), so a
/// split must promise about six round trips of saving: then the CPU it
/// adds stays near a tenth of the wall time it saves.
const HANDOFF: Duration = Duration::from_micros(100);

/// Applies `f` to every item, preserving order, in parallel only when
/// that pays. The caller runs items inline, in order, and times them.
/// After each item it predicts the work left: the shorter of the last
/// two items' times × the items left. Once the part of it that
/// `w = min(budget, items left)` workers would take off the caller,
/// `work × (w−1)/w`, exceeds [`HANDOFF`] and the budget grants a token,
/// the remaining items are split over the pool by [`split`], the only
/// route to the pool. A map too small for that never takes a token,
/// never starts the pool and never wakes a thread.
///
/// Taking the shorter of two items means one stalled item (preempted,
/// or faulting a page in) cannot split a map of short ones, while a map
/// whose items grow long splits once two in a row are. A lone first
/// item is trusted only when it outlasts a handoff by itself: a map of
/// such items splits after its first, and a stall of the first item
/// that short costs less than the handoff it might have wasted.
fn par_map_vec<T: Send, R: Send, F: Fn(T) -> R + Sync>(items: Vec<T>, f: &F) -> Vec<R> {
    // A split needs two items left after the first, timed one: with one
    // left, the caller would run it anyway.
    if items.len() < 3 || concurrency_budget() < 2 {
        return items.into_iter().map(f).collect();
    }
    let budget = concurrency_budget() as u128;
    let mut out = Vec::with_capacity(items.len());
    let mut rest = items.into_iter();
    let mut started = Instant::now();
    let mut previous: Option<Duration> = None;
    while let Some(item) = rest.next() {
        out.push(f(item));
        let now = Instant::now();
        let took = now - started;
        started = now;
        let per_item = match previous.replace(took) {
            Some(previous) => previous.min(took),
            None if took >= HANDOFF => took,
            None => continue,
        };
        let left = rest.len() as u128;
        let workers = left.min(budget);
        // per_item × left × (w−1)/w > HANDOFF, without division.
        if workers >= 2 && per_item.as_nanos() * left * (workers - 1) > HANDOFF.as_nanos() * workers
        {
            start_pool();
            let spawned = acquire_workers(workers as usize - 1);
            if spawned > 0 {
                out.extend(split(rest.collect(), f, spawned));
                break;
            }
        }
    }
    out
}

/// Runs `items` on the caller and on `spawned` pool tokens the caller
/// already holds: one contiguous chunk per worker, the first on the
/// caller, the others queued as pool jobs, results in input order. A
/// panic in any chunk is re-raised on the caller with its *original*
/// payload (after every chunk finishes), so `catch_unwind`-based
/// supervisors see the real cause, not a shim message.
fn split<T: Send, R: Send, F: Fn(T) -> R + Sync>(items: Vec<T>, f: &F, spawned: usize) -> Vec<R> {
    HANDOFFS.fetch_add(1, Ordering::SeqCst);
    let n = items.len();
    let workers = spawned + 1;
    let chunk_len = n.div_ceil(workers);
    let mut chunks: Vec<Vec<T>> = Vec::with_capacity(workers);
    let mut rest = items;
    while rest.len() > chunk_len {
        let tail = rest.split_off(chunk_len);
        chunks.push(std::mem::replace(&mut rest, tail));
    }
    chunks.push(rest);
    // Ceil-division chunking can produce fewer chunks than granted
    // tokens (e.g. 5 items over 4 workers yields 3 chunks); hand the
    // unused tokens back before submitting.
    let unused = workers.saturating_sub(chunks.len());
    if unused > 0 {
        release_workers(unused);
    }
    let mut chunks = chunks.into_iter();
    let first = chunks.next().unwrap_or_default();
    let mut slots: Vec<Option<std::thread::Result<Vec<R>>>> = Vec::new();
    slots.resize_with(chunks.len(), || None);
    let latch = Arc::new(Latch {
        pending: Mutex::new(slots.len()),
        done: Condvar::new(),
    });
    let mine = {
        let join = Join(Arc::clone(&latch));
        {
            let mut jobs = lock(&JOBS);
            for (chunk, slot) in chunks.zip(slots.iter_mut()) {
                let latch = Arc::clone(&latch);
                let job: Box<dyn FnOnce() + Send + '_> = Box::new(move || {
                    *slot = Some(catch_unwind(AssertUnwindSafe(|| {
                        chunk.into_iter().map(f).collect::<Vec<R>>()
                    })));
                    // The token goes back before the latch opens, so a
                    // caller that returns finds its budget restored.
                    release_workers(1);
                    latch.count_down();
                });
                // SAFETY: the job borrows `f`, its own result slot and
                // items that may borrow the caller's data, none of
                // which live for `'static`. `join` waits in its `Drop`
                // until every job has counted the latch down — the
                // job's last use of those borrows — and it is dropped
                // before this frame's borrows end, on the normal path
                // and while unwinding alike. Jobs never unwind (their
                // chunk runs under `catch_unwind`), so each one counts
                // down exactly once.
                let job: Job =
                    unsafe { std::mem::transmute::<Box<dyn FnOnce() + Send + '_>, Job>(job) };
                jobs.push_back(job);
                READY.notify_one();
            }
        }
        // The caller's chunk runs while the pool does, under the same
        // panic capture so every job finishes before re-raising.
        let mine = catch_unwind(AssertUnwindSafe(|| {
            first.into_iter().map(f).collect::<Vec<R>>()
        }));
        drop(join);
        mine
    };
    let mut out = Vec::with_capacity(n);
    let mut panic_payload = None;
    for r in std::iter::once(Some(mine)).chain(slots) {
        match r {
            Some(Ok(v)) => out.extend(v),
            Some(Err(payload)) => {
                if panic_payload.is_none() {
                    panic_payload = Some(payload);
                }
            }
            None => unreachable!("the latch opened before a job stored its result"),
        }
    }
    if let Some(payload) = panic_payload {
        resume_unwind(payload);
    }
    out
}

/// A materialized parallel iterator over owned items.
pub struct ParIter<T> {
    items: Vec<T>,
}

impl<T: Send> ParIter<T> {
    /// Maps every item through `f` in parallel.
    pub fn map<R: Send, F: Fn(T) -> R + Sync>(self, f: F) -> ParMap<T, R, F> {
        ParMap {
            items: self.items,
            f,
            _out: PhantomData,
        }
    }

    /// Pairs every item with its index, like
    /// `IndexedParallelIterator::enumerate`.
    pub fn enumerate(self) -> ParIter<(usize, T)> {
        ParIter {
            items: self.items.into_iter().enumerate().collect(),
        }
    }

    /// Runs `f` on every item in parallel.
    pub fn for_each<F: Fn(T) + Sync>(self, f: F) {
        par_map_vec(self.items, &f);
    }

    /// Number of items.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether there are no items.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }
}

/// The result of [`ParIter::map`]; consumed by `collect`/`sum`/`for_each`.
pub struct ParMap<T, R, F: Fn(T) -> R> {
    items: Vec<T>,
    f: F,
    _out: PhantomData<fn() -> R>,
}

impl<T: Send, R: Send, F: Fn(T) -> R + Sync> ParMap<T, R, F> {
    /// Collects mapped results, preserving input order.
    pub fn collect<C: FromIterator<R>>(self) -> C {
        par_map_vec(self.items, &self.f).into_iter().collect()
    }

    /// Sums mapped results.
    pub fn sum<S: std::iter::Sum<R>>(self) -> S {
        par_map_vec(self.items, &self.f).into_iter().sum()
    }

    /// Runs a closure on every mapped result.
    pub fn for_each<G: Fn(R) + Sync>(self, g: G) {
        let f = &self.f;
        par_map_vec(self.items, &move |x| g(f(x)));
    }
}

/// Conversion into a parallel iterator over owned items.
pub trait IntoParallelIterator {
    /// The element type.
    type Item: Send;
    /// Builds the parallel iterator.
    fn into_par_iter(self) -> ParIter<Self::Item>;
}

impl IntoParallelIterator for std::ops::Range<usize> {
    type Item = usize;
    fn into_par_iter(self) -> ParIter<usize> {
        ParIter {
            items: self.collect(),
        }
    }
}

impl IntoParallelIterator for std::ops::RangeInclusive<usize> {
    type Item = usize;
    fn into_par_iter(self) -> ParIter<usize> {
        ParIter {
            items: self.collect(),
        }
    }
}

impl<T: Send> IntoParallelIterator for Vec<T> {
    type Item = T;
    fn into_par_iter(self) -> ParIter<T> {
        ParIter { items: self }
    }
}

/// Conversion into a parallel iterator over borrowed items.
pub trait IntoParallelRefIterator<'a> {
    /// The borrowed element type.
    type Item: Send;
    /// Builds the parallel iterator.
    fn par_iter(&'a self) -> ParIter<Self::Item>;
}

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for [T] {
    type Item = &'a T;
    fn par_iter(&'a self) -> ParIter<&'a T> {
        ParIter {
            items: self.iter().collect(),
        }
    }
}

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for Vec<T> {
    type Item = &'a T;
    fn par_iter(&'a self) -> ParIter<&'a T> {
        ParIter {
            items: self.iter().collect(),
        }
    }
}

/// Parallel mutable chunk splitting, like rayon's `ParallelSliceMut`.
pub trait ParallelSliceMut<T: Send> {
    /// Splits the slice into `chunk_size`-sized mutable chunks (the
    /// last may be shorter), processed in parallel.
    fn par_chunks_mut(&mut self, chunk_size: usize) -> ParIter<&mut [T]>;
}

impl<T: Send> ParallelSliceMut<T> for [T] {
    fn par_chunks_mut(&mut self, chunk_size: usize) -> ParIter<&mut [T]> {
        ParIter {
            items: self.chunks_mut(chunk_size).collect(),
        }
    }
}

/// The traits most callers want in scope.
pub mod prelude {
    pub use crate::{
        IntoParallelIterator, IntoParallelRefIterator, ParIter, ParMap, ParallelSliceMut,
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn map_collect_preserves_order() {
        let squares: Vec<usize> = (0..1000).into_par_iter().map(|i| i * i).collect();
        assert_eq!(squares.len(), 1000);
        assert!(squares.windows(2).all(|w| w[0] < w[1] || w[0] == 0));
        assert_eq!(squares[999], 999 * 999);
    }

    #[test]
    fn par_iter_borrows() {
        let data = vec![1.0f64, 2.0, 3.0];
        let sum: f64 = data.par_iter().map(|x| x * 2.0).sum();
        assert_eq!(sum, 12.0);
    }

    #[test]
    fn for_each_visits_everything() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let count = AtomicUsize::new(0);
        (0..257).into_par_iter().for_each(|_| {
            count.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), 257);
    }

    #[test]
    fn par_chunks_mut_covers_slice_in_order() {
        let mut data = vec![0usize; 10];
        data.par_chunks_mut(4).enumerate().for_each(|(ch, chunk)| {
            for v in chunk.iter_mut() {
                *v = ch + 1;
            }
        });
        assert_eq!(data, vec![1, 1, 1, 1, 2, 2, 2, 2, 3, 3]);
    }

    #[test]
    fn empty_and_single_inputs() {
        let v: Vec<usize> = (0..0).into_par_iter().map(|i| i).collect();
        assert!(v.is_empty());
        let one: Vec<usize> = (0..1).into_par_iter().map(|i| i + 41).collect();
        assert_eq!(one, vec![41]);
    }

    /// The budget tests observe the global live/peak gauges, so they
    /// must not overlap each other (the harness runs tests in
    /// parallel); the gauges they assert on are process-wide.
    static GAUGE_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    /// Busy-waits for one [`super::HANDOFF`]: under a budget of two or
    /// more, an item this long makes any map of four or more items split
    /// after its first item, so the tests that must reach the pool give
    /// their items this work.
    fn spin() {
        let start = std::time::Instant::now();
        while start.elapsed() < super::HANDOFF {
            std::hint::spin_loop();
        }
    }

    /// Waits for every worker token to drain. Sibling tests in this
    /// binary may still have workers in flight when a gauge test
    /// finishes its own calls; leaked tokens never drain, so a bounded
    /// wait distinguishes a leak from an in-flight neighbour.
    fn assert_tokens_drain() {
        for _ in 0..2000 {
            if crate::diagnostics::live_workers() == 0 {
                return;
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        panic!(
            "leaked worker tokens: {}",
            crate::diagnostics::live_workers()
        );
    }

    #[test]
    fn concurrent_calls_never_exceed_the_global_budget() {
        let _serial = GAUGE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        // Regression: every `par_map_vec` call used to spawn one
        // thread per core with no global cap, so K concurrent callers
        // oversubscribed to K×cores threads. The budget counter must
        // hold the spawned-worker total at `concurrency_budget()` no
        // matter how many callers (or nested calls) race.
        let budget = crate::concurrency_budget();
        crate::diagnostics::reset_peak();
        let callers = budget * 4 + 2;
        std::thread::scope(|scope| {
            for _ in 0..callers {
                scope.spawn(|| {
                    // Nested parallel call inside a parallel call.
                    let total: usize = (0..64)
                        .into_par_iter()
                        .map(|i| {
                            std::thread::sleep(std::time::Duration::from_micros(200));
                            (0..4)
                                .into_par_iter()
                                .map(move |j| {
                                    spin();
                                    i + j
                                })
                                .sum::<usize>()
                        })
                        .sum();
                    assert_eq!(total, (0..64).map(|i| 4 * i + 6).sum::<usize>());
                });
            }
        });
        let peak = crate::diagnostics::peak_workers();
        assert!(
            peak <= budget,
            "peak spawned workers {peak} exceeded budget {budget}"
        );
        assert_tokens_drain();
    }

    #[test]
    fn worker_panic_preserves_the_original_payload() {
        let _serial = GAUGE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        // Regression: a panicking worker died via
        // `expect("rayon shim worker panicked")`, replacing the
        // payload a Supervisor's catch_unwind later reports. The
        // original payload — even a non-string one — must come back.
        #[derive(Debug, PartialEq)]
        struct Custom(u32);

        let caught = std::panic::catch_unwind(|| {
            (0..256).into_par_iter().for_each(|i| {
                spin();
                if i == 200 {
                    std::panic::panic_any(Custom(42));
                }
            });
        })
        .expect_err("panic must propagate");
        let payload = caught
            .downcast_ref::<Custom>()
            .expect("payload replaced by shim message");
        assert_eq!(*payload, Custom(42));
        assert_tokens_drain();

        // String payloads (the common case) survive too.
        let caught = std::panic::catch_unwind(|| {
            (0..256).into_par_iter().for_each(|i| {
                spin();
                assert!(i < 100, "index out of range: {i}")
            });
        })
        .expect_err("panic must propagate");
        let msg = caught
            .downcast_ref::<String>()
            .expect("formatted panic payload is a String");
        assert!(msg.contains("index out of range"), "{msg}");
    }

    #[test]
    fn the_pool_never_grows_past_the_budget() {
        let _serial = GAUGE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        // Regression: every call used to start fresh OS threads. The
        // pool starts its threads once and reuses them, however many
        // calls follow.
        let budget = crate::concurrency_budget();
        for i in 0..1000usize {
            let v: Vec<usize> = (0..8)
                .into_par_iter()
                .map(|j| {
                    spin();
                    i + j
                })
                .collect();
            assert_eq!(v, (i..i + 8).collect::<Vec<_>>());
            let threads = crate::diagnostics::pool_threads();
            assert!(threads <= budget, "{threads} pool threads, budget {budget}");
        }
        if budget > 1 {
            assert_eq!(crate::diagnostics::pool_threads(), budget);
        }
        assert_tokens_drain();
    }

    #[test]
    fn nested_calls_inside_pool_jobs_complete() {
        // Serial too: its maps hold tokens for milliseconds, which
        // would keep the split tests' maps on the caller.
        let _serial = GAUGE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        // A pool thread that blocks on a nested call still holds its
        // token, so the nested call's chunks either find a free pool
        // thread or run inline; the outer call must always finish.
        let rows: Vec<Vec<usize>> = (0..16)
            .into_par_iter()
            .map(|i| {
                std::thread::sleep(std::time::Duration::from_micros(100));
                (0..32)
                    .into_par_iter()
                    .map(move |j| {
                        spin();
                        (0..4).into_par_iter().map(move |k| i + j + k).sum()
                    })
                    .collect()
            })
            .collect();
        for (i, row) in rows.iter().enumerate() {
            let want: Vec<usize> = (0..32).map(|j| 4 * (i + j) + 6).collect();
            assert_eq!(*row, want);
        }
    }

    #[test]
    fn a_panicking_job_leaves_the_pool_usable() {
        let _serial = GAUGE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        for round in 0..50usize {
            let caught = std::panic::catch_unwind(|| {
                (0..64).into_par_iter().for_each(|i| {
                    spin();
                    if i == 63 {
                        std::panic::panic_any(round);
                    }
                });
            })
            .expect_err("panic must propagate");
            assert_eq!(caught.downcast_ref::<usize>(), Some(&round));
        }
        assert_tokens_drain();
        let threads = crate::diagnostics::pool_threads();
        let total: usize = (0..1000)
            .into_par_iter()
            .map(|i| {
                spin();
                i * 2
            })
            .sum();
        assert_eq!(total, 999 * 1000);
        assert_eq!(crate::diagnostics::pool_threads(), threads);
        assert_tokens_drain();
    }

    /// The threads that ran each item of a `len`-item map whose item
    /// `i` spins when `slow(i)`, checking the map's values on the way.
    fn threads_of(len: usize, slow: impl Fn(usize) -> bool + Sync) -> Vec<std::thread::ThreadId> {
        let ran: Vec<(usize, std::thread::ThreadId)> = (0..len)
            .into_par_iter()
            .map(|i| {
                if slow(i) {
                    spin();
                }
                (i * 3, std::thread::current().id())
            })
            .collect();
        let values: Vec<usize> = ran.iter().map(|&(v, _)| v).collect();
        assert_eq!(values, (0..len).map(|i| i * 3).collect::<Vec<_>>());
        ran.into_iter().map(|(_, t)| t).collect()
    }

    #[test]
    fn a_long_map_splits_over_at_least_two_threads() {
        let _serial = GAUGE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let before = crate::diagnostics::handoffs();
        let threads = threads_of(8, |_| true);
        let distinct: std::collections::HashSet<_> = threads.iter().collect();
        if crate::concurrency_budget() >= 2 {
            assert!(distinct.len() >= 2, "ran on {distinct:?}");
            assert!(crate::diagnostics::handoffs() > before);
        } else {
            assert_eq!(distinct.len(), 1);
        }
        assert_eq!(threads[0], std::thread::current().id());
        assert_tokens_drain();
    }

    #[test]
    fn order_holds_across_the_inline_prefix_and_the_split() {
        let _serial = GAUGE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        // `fast` instant items, then slow ones: the split comes once the
        // slow items raise the prediction enough (or earlier, if the
        // host stalls an instant item), so the inline prefix ends at a
        // different item in each round; `threads_of` checks the order.
        let me = std::thread::current().id();
        let before = crate::diagnostics::handoffs();
        for fast in [0, 10, 40] {
            let threads = threads_of(64, |i| i >= fast);
            assert_eq!(threads[0], me);
            if crate::concurrency_budget() >= 2 {
                assert!(threads.iter().any(|&t| t != me), "never split");
            }
            assert_tokens_drain();
        }
        if crate::concurrency_budget() >= 2 {
            assert!(crate::diagnostics::handoffs() >= before + 3);
        }
    }

    #[test]
    fn panics_before_and_after_the_split_keep_their_payload() {
        let _serial = GAUGE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        #[derive(Debug, PartialEq)]
        struct Custom(&'static str);

        // In the inline prefix, before anything was handed off.
        let caught = std::panic::catch_unwind(|| {
            (0..64).into_par_iter().for_each(|i| {
                spin();
                if i == 0 {
                    std::panic::panic_any(Custom("prefix"));
                }
            });
        })
        .expect_err("panic must propagate");
        assert_eq!(caught.downcast_ref::<Custom>(), Some(&Custom("prefix")));
        assert_tokens_drain();

        // In the caller's own chunk after the split, and in a pool chunk.
        let before = crate::diagnostics::handoffs();
        for at in [1, 63] {
            let caught = std::panic::catch_unwind(|| {
                (0..64).into_par_iter().for_each(|i| {
                    spin();
                    if i == at {
                        std::panic::panic_any(Custom("split"));
                    }
                });
            })
            .expect_err("panic must propagate");
            assert_eq!(caught.downcast_ref::<Custom>(), Some(&Custom("split")));
            assert_tokens_drain();
        }
        if crate::concurrency_budget() >= 2 {
            assert!(crate::diagnostics::handoffs() >= before + 2);
        }
    }
}
