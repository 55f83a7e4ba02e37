//! A per-function circuit breaker: consecutive execution failures trip
//! the function into fast-fail, which costs one mutex lock instead of a
//! doomed graph run; after a cooldown a single half-open probe is let
//! through, and the cooldown doubles on every failed probe (capped).
//!
//! Policy notes:
//!
//! * Only **execution** failures count (`ServeError::trips_breaker`):
//!   kernel faults and isolated panics. Deadline expiry, cancellation,
//!   and shedding are client-budget outcomes and leave the breaker
//!   untouched — a burst of impatient clients must not blacklist a
//!   healthy function.
//! * Failures count *consecutively*; any success resets the streak.
//!   Input-dependent errors therefore can trip the breaker under a
//!   stream of poisoned requests — by design: the fast-fail response is
//!   identical to the slow one, just cheaper, and the half-open probe
//!   re-admits real traffic the moment a request succeeds.

use std::sync::Mutex;
use std::time::{Duration, Instant};

/// The admission decision for one request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Admit {
    /// Closed (or a successful probe re-closed it): run normally.
    Yes,
    /// Half-open: this request is the probe. The caller MUST report the
    /// outcome via `on_success`/`on_failure`, otherwise the breaker
    /// stays half-open and keeps fast-failing everyone else.
    Probe,
    /// Open: fast-fail with the given retry hint.
    No {
        /// Time until the next probe slot.
        retry_after: Duration,
    },
}

#[derive(Debug)]
enum State {
    Closed {
        consecutive_failures: u32,
    },
    Open {
        until: Instant,
        cooldown: Duration,
    },
    /// A probe is in flight; everyone else fast-fails until it reports.
    HalfOpen {
        cooldown: Duration,
    },
}

/// The breaker. One per staged function.
#[derive(Debug)]
pub(crate) struct CircuitBreaker {
    state: Mutex<State>,
    threshold: u32,
    base_cooldown: Duration,
    max_cooldown: Duration,
}

impl CircuitBreaker {
    /// `threshold` consecutive failures trip the breaker; the first
    /// cooldown is `base_cooldown`, doubling per failed probe up to
    /// `max_cooldown`.
    pub fn new(threshold: u32, base_cooldown: Duration, max_cooldown: Duration) -> CircuitBreaker {
        CircuitBreaker {
            state: Mutex::new(State::Closed {
                consecutive_failures: 0,
            }),
            threshold: threshold.max(1),
            base_cooldown,
            max_cooldown,
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Decide whether a request may execute.
    pub(crate) fn admit(&self) -> Admit {
        let mut st = self.lock();
        match &*st {
            State::Closed { .. } => Admit::Yes,
            State::HalfOpen { cooldown } => Admit::No {
                retry_after: *cooldown,
            },
            State::Open { until, cooldown } => {
                let now = Instant::now();
                if now >= *until {
                    let cd = *cooldown;
                    *st = State::HalfOpen { cooldown: cd };
                    Admit::Probe
                } else {
                    Admit::No {
                        retry_after: *until - now,
                    }
                }
            }
        }
    }

    /// Report a successful execution: closes from any state.
    pub(crate) fn on_success(&self) {
        *self.lock() = State::Closed {
            consecutive_failures: 0,
        };
    }

    /// Report a failed execution (only for failures where
    /// `ServeError::trips_breaker` holds).
    pub(crate) fn on_failure(&self) {
        let mut st = self.lock();
        match &*st {
            State::Closed {
                consecutive_failures,
            } => {
                let n = consecutive_failures + 1;
                if n >= self.threshold {
                    *st = State::Open {
                        until: Instant::now() + self.base_cooldown,
                        cooldown: self.base_cooldown,
                    };
                } else {
                    *st = State::Closed {
                        consecutive_failures: n,
                    };
                }
            }
            State::HalfOpen { cooldown } => {
                // failed probe: exponential backoff
                let next = (*cooldown * 2).min(self.max_cooldown);
                *st = State::Open {
                    until: Instant::now() + next,
                    cooldown: next,
                };
            }
            State::Open { .. } => {}
        }
    }

    /// Whether the breaker is currently open or probing (for `/stats`).
    pub(crate) fn is_open(&self) -> bool {
        !matches!(&*self.lock(), State::Closed { .. })
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    fn breaker(threshold: u32, base_ms: u64) -> CircuitBreaker {
        CircuitBreaker::new(
            threshold,
            Duration::from_millis(base_ms),
            Duration::from_millis(base_ms * 8),
        )
    }

    #[test]
    fn trips_after_threshold_consecutive_failures() {
        let b = breaker(3, 20);
        b.on_failure();
        b.on_failure();
        assert_eq!(b.admit(), Admit::Yes, "below threshold stays closed");
        b.on_failure();
        assert!(matches!(b.admit(), Admit::No { .. }), "tripped at 3");
        assert!(b.is_open());
    }

    #[test]
    fn success_resets_the_streak() {
        let b = breaker(2, 20);
        b.on_failure();
        b.on_success();
        b.on_failure();
        assert_eq!(b.admit(), Admit::Yes);
    }

    #[test]
    fn half_open_probe_then_close_on_success() {
        let b = breaker(1, 10);
        b.on_failure();
        assert!(matches!(b.admit(), Admit::No { .. }));
        std::thread::sleep(Duration::from_millis(15));
        assert_eq!(b.admit(), Admit::Probe, "cooldown elapsed: one probe");
        assert!(
            matches!(b.admit(), Admit::No { .. }),
            "only one probe at a time"
        );
        b.on_success();
        assert_eq!(b.admit(), Admit::Yes);
        assert!(!b.is_open());
    }

    #[test]
    fn failed_probe_doubles_cooldown_up_to_cap() {
        let b = breaker(1, 10);
        b.on_failure(); // open, cooldown 10
        std::thread::sleep(Duration::from_millis(15));
        assert_eq!(b.admit(), Admit::Probe);
        b.on_failure(); // reopen, cooldown 20
        match b.admit() {
            Admit::No { retry_after } => {
                assert!(retry_after > Duration::from_millis(10), "{retry_after:?}")
            }
            other => panic!("{other:?}"),
        }
        // drive to the cap
        for _ in 0..6 {
            std::thread::sleep(Duration::from_millis(85));
            if let Admit::Probe = b.admit() {
                b.on_failure();
            }
        }
        match b.admit() {
            Admit::No { retry_after } => {
                assert!(retry_after <= Duration::from_millis(80), "{retry_after:?}")
            }
            Admit::Probe => {} // cap small enough that it elapsed — fine
            other => panic!("{other:?}"),
        }
    }
}
