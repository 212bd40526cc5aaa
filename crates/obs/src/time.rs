//! The `Time` abstraction: one clock interface, two implementations.
//!
//! Everything above the transport that needs to *read* time — the engine's
//! per-round latency telemetry, the tuner's reward windows, the trainer's
//! epoch timing, the flight recorder's event timestamps — goes through a
//! [`Clock`] handle instead of calling `Instant::now()` directly. A
//! [`Clock`] is either:
//!
//! - **wall** ([`Clock::wall`]): a thin wrapper over [`std::time::Instant`]
//!   anchored at clock creation — the in-process and TCP transports;
//! - **virtual** ([`Clock::virtual_clock`]): an atomic nanosecond counter
//!   advanced explicitly by a discrete-event scheduler — the simulated
//!   transport. Under a virtual clock, "elapsed time" is a pure function of
//!   the event schedule, which is what makes simulated latency telemetry
//!   bit-reproducible and timing-sensitive tests deterministic.
//!
//! Time is represented as a [`TimePoint`]: nanoseconds since the clock's
//! epoch (creation for wall clocks, zero for virtual ones). `TimePoint`s
//! from different clocks must not be compared — like `Instant`s from
//! different machines.

use std::ops::Add;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// An instant on a [`Clock`]'s timeline: nanoseconds since the clock epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct TimePoint(u64);

impl TimePoint {
    /// The clock epoch.
    pub const ZERO: TimePoint = TimePoint(0);

    /// A point `n` nanoseconds after the epoch.
    pub fn from_nanos(n: u64) -> TimePoint {
        TimePoint(n)
    }

    /// Nanoseconds since the epoch.
    pub fn as_nanos(self) -> u64 {
        self.0
    }

    /// Time elapsed since `earlier` (saturating at zero, like
    /// `Instant::saturating_duration_since`).
    pub fn duration_since(self, earlier: TimePoint) -> Duration {
        Duration::from_nanos(self.0.saturating_sub(earlier.0))
    }
}

impl Add<Duration> for TimePoint {
    type Output = TimePoint;

    fn add(self, d: Duration) -> TimePoint {
        TimePoint(self.0.saturating_add(d.as_nanos() as u64))
    }
}

#[derive(Clone)]
enum ClockInner {
    Wall(Instant),
    Virtual(Arc<AtomicU64>),
}

/// A cheap-to-clone clock handle (see module docs). Clones share the same
/// timeline: advancing a virtual clock is visible through every clone.
#[derive(Clone)]
pub struct Clock {
    inner: ClockInner,
}

impl Clock {
    /// A wall clock anchored at this call (inproc/TCP transports).
    pub fn wall() -> Clock {
        Clock {
            inner: ClockInner::Wall(Instant::now()),
        }
    }

    /// A virtual clock starting at [`TimePoint::ZERO`], advanced only by
    /// explicit [`Clock::advance_to`] calls (the sim transport's event
    /// loop). (`virtual` is a reserved word, hence the name.)
    pub fn virtual_clock() -> Clock {
        Clock {
            inner: ClockInner::Virtual(Arc::new(AtomicU64::new(0))),
        }
    }

    /// The current time on this clock's timeline.
    pub fn now(&self) -> TimePoint {
        match &self.inner {
            ClockInner::Wall(anchor) => TimePoint(anchor.elapsed().as_nanos() as u64),
            ClockInner::Virtual(t) => TimePoint(t.load(Ordering::Acquire)),
        }
    }

    /// Advance a virtual clock to `t` (monotonic: a target in the past is
    /// a no-op). Panics on a wall clock — only a scheduler owns time.
    pub fn advance_to(&self, t: TimePoint) {
        match &self.inner {
            ClockInner::Wall(_) => panic!("advance_to on a wall clock"),
            ClockInner::Virtual(cur) => {
                cur.fetch_max(t.as_nanos(), Ordering::AcqRel);
            }
        }
    }

    /// Advance a virtual clock by `d` from its current reading.
    pub fn advance(&self, d: Duration) {
        let t = self.now() + d;
        self.advance_to(t);
    }
}

impl Default for Clock {
    fn default() -> Clock {
        Clock::wall()
    }
}

impl std::fmt::Debug for Clock {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.inner {
            ClockInner::Wall(_) => write!(f, "Clock::Wall"),
            ClockInner::Virtual(t) => {
                write!(f, "Clock::Virtual({}ns)", t.load(Ordering::Relaxed))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wall_clock_moves_forward() {
        let c = Clock::wall();
        let a = c.now();
        std::thread::sleep(Duration::from_millis(2));
        let b = c.now();
        assert!(b > a);
        assert!(b.duration_since(a) >= Duration::from_millis(2));
    }

    #[test]
    fn virtual_clock_only_moves_when_advanced() {
        let c = Clock::virtual_clock();
        assert_eq!(c.now(), TimePoint::ZERO);
        std::thread::sleep(Duration::from_millis(1));
        assert_eq!(c.now(), TimePoint::ZERO, "virtual time ignores wall time");
        c.advance(Duration::from_micros(250));
        assert_eq!(c.now().as_nanos(), 250_000);
    }

    #[test]
    fn virtual_clock_is_monotonic_and_shared_across_clones() {
        let c = Clock::virtual_clock();
        let c2 = c.clone();
        c.advance_to(TimePoint::from_nanos(1000));
        c.advance_to(TimePoint::from_nanos(400)); // past: no-op
        assert_eq!(c2.now().as_nanos(), 1000, "clones share the timeline");
    }

    #[test]
    #[should_panic(expected = "advance_to on a wall clock")]
    fn advancing_a_wall_clock_panics() {
        Clock::wall().advance_to(TimePoint::from_nanos(1));
    }

    #[test]
    fn duration_since_saturates() {
        let a = TimePoint::from_nanos(5);
        let b = TimePoint::from_nanos(9);
        assert_eq!(b.duration_since(a), Duration::from_nanos(4));
        assert_eq!(a.duration_since(b), Duration::ZERO);
        assert_eq!((a + Duration::from_nanos(10)).as_nanos(), 15);
    }
}
