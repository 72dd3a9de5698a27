//! Per-shard circuit breakers.
//!
//! A shard whose storage keeps failing — a corrupt cold store tripping
//! page-checksum errors, a panicking materialization, rotted overlay
//! state — used to absorb every request routed to it forever, each one
//! paying the full (and failing) work before degrading. The breaker
//! turns that into fail-fast: after `failure_threshold` *consecutive*
//! storage-internal failures the shard's breaker opens and requests get
//! a typed [`crate::Outcome::BreakerOpen`] without touching the shard's
//! cache or mmap at all. After a cooldown the breaker goes half-open
//! and admits a bounded number of probe requests; one success closes it
//! again, one failure re-opens it for another cooldown.
//!
//! ```text
//!             failure_threshold consecutive failures
//!   Closed ────────────────────────────────────────────▶ Open
//!     ▲                                                   │
//!     │ probe succeeds                       open_cooldown elapses
//!     │                                                   ▼
//!     └──────────────────────────────────────────────  HalfOpen
//!                         probe fails ──▶ Open     (≤ half_open_probes
//!                                                   requests admitted)
//! ```
//!
//! What counts as a failure is the *caller's* decision, and the rule is
//! strict: only storage-internal faults (shard panics, corrupt-page
//! errors, non-`NotFound` repository errors) trip the breaker. Client
//! mistakes — unknown trials, unparseable uploads, scripts with errors
//! — never do, no matter how many arrive; a broken client must not take
//! a healthy shard out of rotation.
//!
//! All state lives behind one mutex per breaker and transitions use
//! wall-clock [`Instant`]s; the breaker is shared by every caller
//! thread touching the shard.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use parking_lot::Mutex;
use std::time::{Duration, Instant};

/// Breaker tuning knobs.
#[derive(Debug, Clone)]
pub struct BreakerConfig {
    /// Consecutive storage failures that open the breaker.
    pub failure_threshold: u32,
    /// How long an open breaker rejects before going half-open.
    pub open_cooldown: Duration,
    /// Probe requests admitted while half-open; further requests
    /// fail fast until a probe settles the state.
    pub half_open_probes: u32,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        BreakerConfig {
            failure_threshold: 5,
            open_cooldown: Duration::from_millis(250),
            half_open_probes: 1,
        }
    }
}

/// The breaker's externally visible state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Healthy: every request admitted.
    Closed,
    /// Failing: every request fails fast until the cooldown elapses.
    Open,
    /// Probing: a bounded number of requests admitted to test recovery.
    HalfOpen,
}

impl std::fmt::Display for BreakerState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            BreakerState::Closed => "closed",
            BreakerState::Open => "open",
            BreakerState::HalfOpen => "half-open",
        })
    }
}

/// What one reported failure did to the breaker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Trip {
    /// The streak is still below the threshold (or the breaker was
    /// already open); nothing changed.
    None,
    /// This failure opened a previously closed breaker.
    Opened,
    /// A failed half-open probe re-opened the breaker (it never
    /// closed, so the open-breakers gauge is unchanged).
    Reopened,
}

/// What the breaker says about one arriving request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// Proceed normally.
    Allowed,
    /// Proceed, but this request is a half-open probe: its outcome
    /// decides whether the breaker closes or re-opens.
    Probe,
    /// Fail fast with [`crate::Outcome::BreakerOpen`]; do not touch the
    /// shard.
    FastFail,
}

#[derive(Debug)]
struct BreakerInner {
    state: BreakerState,
    consecutive_failures: u32,
    opened_at: Option<Instant>,
    probes_in_flight: u32,
    trips: u64,
}

/// A single shard's circuit breaker.
#[derive(Debug)]
pub struct CircuitBreaker {
    config: BreakerConfig,
    inner: Mutex<BreakerInner>,
}

impl CircuitBreaker {
    /// A closed breaker with the given tuning.
    pub fn new(config: BreakerConfig) -> Self {
        CircuitBreaker {
            config,
            inner: Mutex::new(BreakerInner {
                state: BreakerState::Closed,
                consecutive_failures: 0,
                opened_at: None,
                probes_in_flight: 0,
                trips: 0,
            }),
        }
    }

    /// Gate for one arriving request. Open breakers transition to
    /// half-open here once the cooldown has elapsed, so no background
    /// timer thread is needed.
    pub fn admit(&self) -> Admission {
        let mut inner = self.inner.lock();
        match inner.state {
            BreakerState::Closed => Admission::Allowed,
            BreakerState::Open => {
                let cooled = inner
                    .opened_at
                    .is_some_and(|t| t.elapsed() >= self.config.open_cooldown);
                if cooled {
                    inner.state = BreakerState::HalfOpen;
                    inner.probes_in_flight = 1;
                    Admission::Probe
                } else {
                    Admission::FastFail
                }
            }
            BreakerState::HalfOpen => {
                if inner.probes_in_flight < self.config.half_open_probes {
                    inner.probes_in_flight += 1;
                    Admission::Probe
                } else {
                    Admission::FastFail
                }
            }
        }
    }

    /// Reports that an admitted request finished without a storage
    /// fault. Closes a half-open breaker and clears the failure
    /// streak. Returns `true` when this success closed the breaker
    /// (for the open-breakers gauge).
    pub fn record_success(&self) -> bool {
        let mut inner = self.inner.lock();
        inner.consecutive_failures = 0;
        if inner.state == BreakerState::HalfOpen {
            inner.state = BreakerState::Closed;
            inner.opened_at = None;
            inner.probes_in_flight = 0;
            true
        } else {
            false
        }
    }

    /// Reports a storage-internal failure. A failed half-open probe
    /// re-opens immediately and restarts the cooldown. The returned
    /// [`Trip`] says whether (and how) this failure opened the breaker.
    pub fn record_failure(&self) -> Trip {
        let mut inner = self.inner.lock();
        match inner.state {
            BreakerState::HalfOpen => {
                inner.state = BreakerState::Open;
                inner.opened_at = Some(Instant::now());
                inner.probes_in_flight = 0;
                inner.trips += 1;
                Trip::Reopened
            }
            BreakerState::Open => Trip::None,
            BreakerState::Closed => {
                inner.consecutive_failures += 1;
                if inner.consecutive_failures >= self.config.failure_threshold.max(1) {
                    inner.state = BreakerState::Open;
                    inner.opened_at = Some(Instant::now());
                    inner.trips += 1;
                    Trip::Opened
                } else {
                    Trip::None
                }
            }
        }
    }

    /// The breaker's current state (open breakers past their cooldown
    /// still report `Open` until a request arrives to probe).
    pub fn state(&self) -> BreakerState {
        self.inner.lock().state
    }

    /// How many times this breaker has tripped open.
    pub fn trips(&self) -> u64 {
        self.inner.lock().trips
    }

    /// The tuning this breaker runs with.
    pub fn config(&self) -> &BreakerConfig {
        &self.config
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fast_config() -> BreakerConfig {
        BreakerConfig {
            failure_threshold: 3,
            open_cooldown: Duration::from_millis(20),
            half_open_probes: 1,
        }
    }

    #[test]
    fn stays_closed_below_threshold_and_success_resets_streak() {
        let b = CircuitBreaker::new(fast_config());
        assert_eq!(b.record_failure(), Trip::None);
        assert_eq!(b.record_failure(), Trip::None);
        b.record_success();
        assert_eq!(b.record_failure(), Trip::None);
        assert_eq!(b.record_failure(), Trip::None);
        assert_eq!(b.state(), BreakerState::Closed);
        assert_eq!(b.admit(), Admission::Allowed);
        assert_eq!(b.trips(), 0);
    }

    #[test]
    fn consecutive_failures_open_then_fast_fail() {
        let b = CircuitBreaker::new(fast_config());
        assert_eq!(b.record_failure(), Trip::None);
        assert_eq!(b.record_failure(), Trip::None);
        assert_eq!(b.record_failure(), Trip::Opened, "third failure trips");
        assert_eq!(b.state(), BreakerState::Open);
        assert_eq!(b.admit(), Admission::FastFail);
        assert_eq!(b.trips(), 1);
        // Failures while already open don't re-trip.
        assert_eq!(b.record_failure(), Trip::None);
        assert_eq!(b.trips(), 1);
    }

    #[test]
    fn cooldown_admits_probe_and_success_closes() {
        let b = CircuitBreaker::new(fast_config());
        for _ in 0..3 {
            b.record_failure();
        }
        assert_eq!(b.admit(), Admission::FastFail);
        std::thread::sleep(Duration::from_millis(25));
        assert_eq!(b.admit(), Admission::Probe);
        // Only one probe at a time; a second request fails fast.
        assert_eq!(b.admit(), Admission::FastFail);
        b.record_success();
        assert_eq!(b.state(), BreakerState::Closed);
        assert_eq!(b.admit(), Admission::Allowed);
    }

    #[test]
    fn failed_probe_reopens_for_another_cooldown() {
        let b = CircuitBreaker::new(fast_config());
        for _ in 0..3 {
            b.record_failure();
        }
        std::thread::sleep(Duration::from_millis(25));
        assert_eq!(b.admit(), Admission::Probe);
        assert_eq!(b.record_failure(), Trip::Reopened, "failed probe re-trips");
        assert_eq!(b.state(), BreakerState::Open);
        assert_eq!(b.admit(), Admission::FastFail);
        assert_eq!(b.trips(), 2);
        // And it can recover after the second cooldown.
        std::thread::sleep(Duration::from_millis(25));
        assert_eq!(b.admit(), Admission::Probe);
        b.record_success();
        assert_eq!(b.state(), BreakerState::Closed);
    }

    #[test]
    fn half_open_admits_configured_probe_count() {
        let b = CircuitBreaker::new(BreakerConfig {
            half_open_probes: 2,
            ..fast_config()
        });
        for _ in 0..3 {
            b.record_failure();
        }
        std::thread::sleep(Duration::from_millis(25));
        assert_eq!(b.admit(), Admission::Probe);
        assert_eq!(b.admit(), Admission::Probe);
        assert_eq!(b.admit(), Admission::FastFail);
    }

    #[test]
    fn concurrent_failures_trip_exactly_once() {
        let b = std::sync::Arc::new(CircuitBreaker::new(BreakerConfig {
            failure_threshold: 8,
            ..fast_config()
        }));
        let trips: usize = std::thread::scope(|s| {
            (0..4)
                .map(|_| {
                    let b = b.clone();
                    s.spawn(move || (0..4).filter(|_| b.record_failure() != Trip::None).count())
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().unwrap())
                .sum()
        });
        assert_eq!(trips, 1, "16 concurrent failures, one trip");
        assert_eq!(b.state(), BreakerState::Open);
    }
}
