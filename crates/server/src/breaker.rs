//! Per-platform circuit breakers with software-checker fallback.
//!
//! The RACOD and `Threads` platforms are accelerated execution paths for
//! the *same* search the software checker performs — by the determinism
//! invariant all three produce bit-identical paths. That makes the
//! software path a safe fallback: when an accelerated platform keeps
//! panicking or blowing deadlines, the breaker trips and requests are
//! served by the plain software checker (slower, but correct) until a
//! half-open probe shows the platform is healthy again.
//!
//! The breaker is the classic three-state machine:
//!
//! * **Closed** — requests route natively; consecutive failures are
//!   counted and reset on any success.
//! * **Open** — requests route to the fallback. After `cooldown` has
//!   elapsed, exactly one request is let through as a half-open probe.
//! * **Half-open** — the probe is in flight; everyone else still falls
//!   back. Probe success closes the breaker, probe failure re-opens it
//!   and restarts the cooldown.
//!
//! Fallback executions never feed back into the breaker: they say
//! nothing about the health of the native platform.

use parking_lot::Mutex;
use std::time::{Duration, Instant};

/// Tuning for the per-platform circuit breakers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BreakerConfig {
    /// Whether breakers are active at all. Disabled breakers always route
    /// natively and never trip.
    pub enabled: bool,
    /// Consecutive native failures (panics, poisoned pools, mid-search
    /// deadline blowouts) that trip the breaker open.
    pub threshold: u32,
    /// How long the breaker stays open before admitting a half-open probe.
    pub cooldown: Duration,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        BreakerConfig { enabled: true, threshold: 5, cooldown: Duration::from_millis(250) }
    }
}

/// Where the breaker sends a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Route {
    /// Execute on the requested platform.
    Native,
    /// Execute on the requested platform as the single half-open probe.
    Probe,
    /// Execute on the software-checker fallback.
    Fallback,
}

/// What a [`CircuitBreaker::record`] call observed happening.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerEvent {
    /// No state change worth reporting.
    None,
    /// The breaker just tripped open (threshold reached, or a probe failed).
    Tripped,
    /// A half-open probe succeeded and the breaker closed.
    Recovered,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    Closed,
    Open,
    HalfOpen,
}

#[derive(Debug)]
struct Inner {
    state: State,
    consecutive_failures: u32,
    opened_at: Instant,
    probe_in_flight: bool,
}

/// A three-state circuit breaker guarding one accelerated platform kind.
#[derive(Debug)]
pub struct CircuitBreaker {
    cfg: BreakerConfig,
    inner: Mutex<Inner>,
}

impl CircuitBreaker {
    /// Creates a closed breaker.
    pub fn new(cfg: BreakerConfig) -> Self {
        CircuitBreaker {
            cfg,
            inner: Mutex::new(Inner {
                state: State::Closed,
                consecutive_failures: 0,
                opened_at: Instant::now(),
                probe_in_flight: false,
            }),
        }
    }

    /// Decides where the next request for this platform should run. A
    /// [`Route::Probe`] return reserves the single half-open slot; the
    /// caller must follow up with [`record`](Self::record).
    pub fn route(&self) -> Route {
        if !self.cfg.enabled {
            return Route::Native;
        }
        let mut inner = self.inner.lock();
        match inner.state {
            State::Closed => Route::Native,
            State::Open => {
                if !inner.probe_in_flight && inner.opened_at.elapsed() >= self.cfg.cooldown {
                    inner.state = State::HalfOpen;
                    inner.probe_in_flight = true;
                    Route::Probe
                } else {
                    Route::Fallback
                }
            }
            State::HalfOpen => {
                if inner.probe_in_flight {
                    Route::Fallback
                } else {
                    inner.probe_in_flight = true;
                    Route::Probe
                }
            }
        }
    }

    /// Records the outcome of a routed execution. Fallback outcomes are
    /// ignored — they carry no signal about the native platform.
    pub fn record(&self, route: Route, ok: bool) -> BreakerEvent {
        if !self.cfg.enabled || route == Route::Fallback {
            return BreakerEvent::None;
        }
        let mut inner = self.inner.lock();
        match (route, ok) {
            (Route::Native, true) => {
                inner.consecutive_failures = 0;
                BreakerEvent::None
            }
            (Route::Native, false) => {
                inner.consecutive_failures = inner.consecutive_failures.saturating_add(1);
                if inner.state == State::Closed
                    && inner.consecutive_failures >= self.cfg.threshold.max(1)
                {
                    inner.state = State::Open;
                    inner.opened_at = Instant::now();
                    BreakerEvent::Tripped
                } else {
                    BreakerEvent::None
                }
            }
            (Route::Probe, true) => {
                inner.state = State::Closed;
                inner.consecutive_failures = 0;
                inner.probe_in_flight = false;
                BreakerEvent::Recovered
            }
            (Route::Probe, false) => {
                inner.state = State::Open;
                inner.opened_at = Instant::now();
                inner.probe_in_flight = false;
                BreakerEvent::Tripped
            }
            (Route::Fallback, _) => BreakerEvent::None,
        }
    }

    /// Whether the breaker currently denies native routing (open or
    /// half-open with a probe in flight).
    pub fn is_open(&self) -> bool {
        let inner = self.inner.lock();
        inner.state != State::Closed
    }
}

/// The pair of breakers the server maintains: one per accelerated
/// platform kind. The software platform needs none — it *is* the
/// fallback.
#[derive(Debug)]
pub struct Breakers {
    /// Breaker for the `Platform::Racod` accelerator path.
    pub racod: CircuitBreaker,
    /// Breaker for the `Platform::Threads` kernel path.
    pub threads: CircuitBreaker,
}

impl Breakers {
    /// Creates both breakers closed with the same tuning.
    pub fn new(cfg: BreakerConfig) -> Self {
        Breakers { racod: CircuitBreaker::new(cfg), threads: CircuitBreaker::new(cfg) }
    }

    /// The breaker guarding `platform`, if that platform kind has one.
    pub fn for_platform(&self, platform: crate::Platform) -> Option<&CircuitBreaker> {
        match platform {
            crate::Platform::Racod { .. } => Some(&self.racod),
            crate::Platform::Threads { .. } => Some(&self.threads),
            crate::Platform::SimSoftware { .. } => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(threshold: u32, cooldown_ms: u64) -> BreakerConfig {
        BreakerConfig { enabled: true, threshold, cooldown: Duration::from_millis(cooldown_ms) }
    }

    #[test]
    fn trips_after_threshold_consecutive_failures() {
        let b = CircuitBreaker::new(cfg(3, 1000));
        assert_eq!(b.record(Route::Native, false), BreakerEvent::None);
        assert_eq!(b.record(Route::Native, false), BreakerEvent::None);
        assert!(!b.is_open());
        assert_eq!(b.record(Route::Native, false), BreakerEvent::Tripped);
        assert!(b.is_open());
        assert_eq!(b.route(), Route::Fallback);
    }

    #[test]
    fn success_resets_the_failure_streak() {
        let b = CircuitBreaker::new(cfg(3, 1000));
        b.record(Route::Native, false);
        b.record(Route::Native, false);
        b.record(Route::Native, true);
        assert_eq!(b.record(Route::Native, false), BreakerEvent::None);
        assert_eq!(b.record(Route::Native, false), BreakerEvent::None);
        assert!(!b.is_open());
    }

    #[test]
    fn half_open_admits_one_probe_and_recovers_on_success() {
        let b = CircuitBreaker::new(cfg(1, 0));
        assert_eq!(b.record(Route::Native, false), BreakerEvent::Tripped);
        // Cooldown of zero: the next route call is the probe.
        assert_eq!(b.route(), Route::Probe);
        // Concurrent requests during the probe still fall back.
        assert_eq!(b.route(), Route::Fallback);
        assert_eq!(b.record(Route::Probe, true), BreakerEvent::Recovered);
        assert!(!b.is_open());
        assert_eq!(b.route(), Route::Native);
    }

    #[test]
    fn failed_probe_reopens_and_restarts_cooldown() {
        let b = CircuitBreaker::new(cfg(1, 40));
        b.record(Route::Native, false);
        std::thread::sleep(Duration::from_millis(50));
        assert_eq!(b.route(), Route::Probe);
        assert_eq!(b.record(Route::Probe, false), BreakerEvent::Tripped);
        // Cooldown restarted: straight back to fallback.
        assert_eq!(b.route(), Route::Fallback);
        std::thread::sleep(Duration::from_millis(50));
        assert_eq!(b.route(), Route::Probe);
        assert_eq!(b.record(Route::Probe, true), BreakerEvent::Recovered);
    }

    #[test]
    fn fallback_outcomes_do_not_move_the_state_machine() {
        let b = CircuitBreaker::new(cfg(1, 1000));
        b.record(Route::Native, false);
        assert!(b.is_open());
        assert_eq!(b.record(Route::Fallback, false), BreakerEvent::None);
        assert_eq!(b.record(Route::Fallback, true), BreakerEvent::None);
        assert!(b.is_open());
    }

    #[test]
    fn disabled_breaker_always_routes_native() {
        let b = CircuitBreaker::new(BreakerConfig { enabled: false, ..cfg(1, 0) });
        for _ in 0..10 {
            assert_eq!(b.record(Route::Native, false), BreakerEvent::None);
        }
        assert_eq!(b.route(), Route::Native);
        assert!(!b.is_open());
    }
}
