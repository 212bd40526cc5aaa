//! The flight recorder: a bounded, overwrite-oldest ring of typed events.
//!
//! Design constraints, in order:
//!
//! 1. **Near-zero cost when disabled.** Every call-site goes through
//!    [`Recorder::record`], whose disabled path is a `None` check or a
//!    single relaxed atomic load — the event itself is built inside a
//!    closure that never runs when recording is off (no allocation, no
//!    formatting, no clock read). This is asserted by an
//!    allocation-counting micro-test.
//! 2. **Bounded.** The ring holds a fixed number of slots; writers claim
//!    a monotonically increasing sequence number with one `fetch_add`
//!    (wait-free) and overwrite `seq % capacity`. A long run keeps the
//!    *most recent* window — exactly what a post-mortem needs.
//! 3. **Clock-agnostic.** Timestamps come from the [`Clock`] handed in at
//!    construction, so the same recorder produces wall-time traces on the
//!    thread/TCP transports and bit-deterministic virtual-time traces
//!    under the discrete-event simulator.
//!
//! [`Recorder`] is the cheap cloneable handle call-sites hold; the shared
//! [`FlightRecorder`] behind it owns the ring. [`Recorder::drain`] reads
//! the surviving window in sequence order — exact once writers have
//! quiesced (end of run), best-effort while they race.

use crate::event::{EventKind, TraceEvent};
use crate::time::Clock;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Recording disabled: [`Recorder::record`] is a no-op at any level.
pub const LEVEL_OFF: u8 = 0;
/// Coarse timeline: spans and instants (rounds, ops, stalls, steps,
/// tuner decisions). Cheap enough to leave on during benchmarks —
/// `comm_micro` holds this level within 5% of recording off in CI.
pub const LEVEL_SPANS: u8 = 1;
/// Everything, including per-message send/recv/combine events. Meant for
/// post-mortems and simulator runs (where the clock is virtual and the
/// overhead is invisible).
pub const LEVEL_VERBOSE: u8 = 2;

/// Environment variable selecting the recording level (0/1/2).
pub const ENV_TRACE: &str = "PCOLL_TRACE";
/// Environment variable overriding the per-rank ring capacity.
pub const ENV_TRACE_CAP: &str = "PCOLL_TRACE_CAP";

/// How (and whether) to trace a launch: a level plus a ring capacity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceConfig {
    /// Recording level ([`LEVEL_OFF`] / [`LEVEL_SPANS`] / [`LEVEL_VERBOSE`]).
    pub level: u8,
    /// Ring slots per rank.
    pub capacity: usize,
}

impl TraceConfig {
    /// Default per-rank ring capacity (events kept, not bytes). Sized
    /// to stay cache-resident (~90 KB of slots) so that materializing
    /// or cycling the ring never thrashes the workload being observed;
    /// post-mortem consumers that want the whole story rather than the
    /// tail override it (`PCOLL_TRACE_CAP`, [`TraceConfig`]'s field, or
    /// `WorldConfig::with_trace`), as the sim harnesses do.
    pub const DEFAULT_CAPACITY: usize = 1024;

    /// Tracing off.
    pub fn off() -> TraceConfig {
        TraceConfig {
            level: LEVEL_OFF,
            capacity: Self::DEFAULT_CAPACITY,
        }
    }

    /// Tracing on at `level` with the default capacity.
    pub fn enabled(level: u8) -> TraceConfig {
        TraceConfig {
            level,
            capacity: Self::DEFAULT_CAPACITY,
        }
    }

    /// Read the process environment: `PCOLL_TRACE` (0 = off, 1 = spans,
    /// 2 = verbose) and `PCOLL_TRACE_CAP` (ring slots per rank). Unset or
    /// unparsable means off/default. Environment variables are inherited
    /// by the TCP transport's worker processes, so setting `PCOLL_TRACE`
    /// on the parent traces every rank of a multi-process launch.
    pub fn from_env() -> TraceConfig {
        let level = std::env::var(ENV_TRACE)
            .ok()
            .and_then(|v| v.trim().parse::<u8>().ok())
            .unwrap_or(LEVEL_OFF);
        let capacity = std::env::var(ENV_TRACE_CAP)
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .filter(|c| *c > 0)
            .unwrap_or(Self::DEFAULT_CAPACITY);
        TraceConfig { level, capacity }
    }

    /// Whether this config records anything at all.
    pub fn is_enabled(&self) -> bool {
        self.level > LEVEL_OFF && self.capacity > 0
    }

    /// Build a per-rank recorder on `clock` (disabled handle when the
    /// config is off — the cheapest possible call-sites).
    pub fn recorder(&self, rank: u32, clock: Clock) -> Recorder {
        if self.is_enabled() {
            Recorder::new(rank, clock, self.level, self.capacity)
        } else {
            Recorder::disabled()
        }
    }
}

impl Default for TraceConfig {
    fn default() -> TraceConfig {
        TraceConfig::off()
    }
}

/// The shared ring one rank's events land in. Usually reached through a
/// [`Recorder`] handle; exposed for level toggling and draining.
pub struct FlightRecorder {
    level: AtomicU8,
    head: AtomicU64,
    capacity: usize,
    /// The ring materializes on the *first event*, not at construction:
    /// an enabled-but-quiet recorder (span level, no stalls) costs zero
    /// memory, and — more importantly for the CI overhead gate — a
    /// launch does not write `capacity` cold slots through the cache
    /// right before the workload it is supposed to observe.
    slots: OnceLock<Box<[Mutex<Option<TraceEvent>>]>>,
    clock: Clock,
    rank: u32,
}

impl FlightRecorder {
    fn slots(&self) -> &[Mutex<Option<TraceEvent>>] {
        self.slots
            .get_or_init(|| (0..self.capacity).map(|_| Mutex::new(None)).collect())
    }

    fn push(&self, kind: EventKind) {
        let ev = TraceEvent {
            ts_ns: self.clock.now().as_nanos(),
            rank: self.rank,
            kind,
        };
        let slots = self.slots();
        let seq = self.head.fetch_add(1, Ordering::Relaxed);
        let slot = (seq % slots.len() as u64) as usize;
        *lock(&slots[slot]) = Some(ev);
    }
}

fn lock<T>(m: &Mutex<Option<T>>) -> std::sync::MutexGuard<'_, Option<T>> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Cheap cloneable handle to a rank's [`FlightRecorder`] (or to nothing:
/// the default handle is disabled and records at zero cost).
#[derive(Clone, Default)]
pub struct Recorder {
    inner: Option<Arc<FlightRecorder>>,
}

impl Recorder {
    /// A handle that records nothing ([`Recorder::record`] returns after
    /// one `Option` check).
    pub fn disabled() -> Recorder {
        Recorder { inner: None }
    }

    /// An enabled recorder for `rank`, timestamping on `clock`, keeping
    /// the most recent `capacity` events. A zero capacity yields a
    /// disabled handle.
    pub fn new(rank: u32, clock: Clock, level: u8, capacity: usize) -> Recorder {
        if capacity == 0 {
            return Recorder::disabled();
        }
        Recorder {
            inner: Some(Arc::new(FlightRecorder {
                level: AtomicU8::new(level),
                head: AtomicU64::new(0),
                capacity,
                slots: OnceLock::new(),
                clock,
                rank,
            })),
        }
    }

    /// Record one event at `level`. The closure builds the event only
    /// when recording is on at that level — the disabled path is a
    /// `None` check or one relaxed atomic load, with no allocation and
    /// no clock read.
    #[inline]
    pub fn record(&self, level: u8, kind: impl FnOnce() -> EventKind) {
        let Some(r) = &self.inner else { return };
        if r.level.load(Ordering::Relaxed) < level {
            return;
        }
        r.push(kind());
    }

    /// Whether a [`Recorder::record`] at `level` would store an event.
    /// Call-sites that need pre-work beyond building the event (e.g.
    /// reading a start timestamp for a span) gate on this.
    #[inline]
    pub fn enabled(&self, level: u8) -> bool {
        match &self.inner {
            None => false,
            Some(r) => r.level.load(Ordering::Relaxed) >= level,
        }
    }

    /// The current recording level (0 when disabled).
    pub fn level(&self) -> u8 {
        self.inner
            .as_ref()
            .map_or(LEVEL_OFF, |r| r.level.load(Ordering::Relaxed))
    }

    /// Change the recording level at runtime (no-op on a disabled
    /// handle — capacity is fixed at construction).
    pub fn set_level(&self, level: u8) {
        if let Some(r) = &self.inner {
            r.level.store(level, Ordering::Relaxed);
        }
    }

    /// Events recorded over the recorder's lifetime (including ones the
    /// ring has since overwritten).
    pub fn recorded(&self) -> u64 {
        self.inner
            .as_ref()
            .map_or(0, |r| r.head.load(Ordering::Acquire))
    }

    /// Events lost to ring overwrite so far.
    pub fn dropped(&self) -> u64 {
        self.inner.as_ref().map_or(0, |r| {
            let head = r.head.load(Ordering::Acquire);
            head.saturating_sub(r.capacity as u64)
        })
    }

    /// Take the surviving window out of the ring, oldest first. Exact in
    /// sequence order once writers have quiesced; a writer racing with
    /// the drain may leave a just-claimed slot empty or doubly new.
    pub fn drain(&self) -> Vec<TraceEvent> {
        let Some(r) = &self.inner else {
            return Vec::new();
        };
        let head = r.head.load(Ordering::Acquire);
        if head == 0 {
            return Vec::new(); // nothing recorded: ring never materialized
        }
        let slots = r.slots();
        let cap = slots.len() as u64;
        let start = head.saturating_sub(cap);
        let mut out = Vec::with_capacity((head - start) as usize);
        for seq in start..head {
            let slot = (seq % cap) as usize;
            if let Some(ev) = lock(&slots[slot]).take() {
                out.push(ev);
            }
        }
        out
    }
}

// Manual `Debug`: `CommStats` and friends derive `Debug`, and deriving it
// here would try to print every ring slot.
impl std::fmt::Debug for Recorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.inner {
            None => write!(f, "Recorder(off)"),
            Some(r) => write!(
                f,
                "Recorder(rank={}, level={}, cap={}, recorded={})",
                r.rank,
                r.level.load(Ordering::Relaxed),
                r.capacity,
                r.head.load(Ordering::Relaxed)
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::TimePoint;
    use std::time::Duration;

    fn instant(round: u64) -> EventKind {
        EventKind::RoundOpen { coll: 1, round }
    }

    #[test]
    fn ring_keeps_the_newest_window_in_order() {
        let rec = Recorder::new(0, Clock::wall(), LEVEL_VERBOSE, 4);
        for round in 0..10 {
            rec.record(LEVEL_SPANS, || instant(round));
        }
        assert_eq!(rec.recorded(), 10);
        assert_eq!(rec.dropped(), 6, "capacity 4 of 10 → 6 overwritten");
        let got: Vec<u64> = rec
            .drain()
            .iter()
            .map(|e| match e.kind {
                EventKind::RoundOpen { round, .. } => round,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(got, vec![6, 7, 8, 9], "newest window, oldest first");
        assert!(rec.drain().is_empty(), "drain takes");
    }

    #[test]
    fn disabled_handle_never_runs_the_closure() {
        let rec = Recorder::disabled();
        let mut ran = false;
        rec.record(LEVEL_SPANS, || {
            ran = true;
            instant(0)
        });
        assert!(!ran);
        assert!(!rec.enabled(LEVEL_SPANS));
        assert_eq!(rec.level(), LEVEL_OFF);
        assert_eq!(rec.drain(), Vec::new());
        rec.set_level(LEVEL_VERBOSE); // no-op, not a panic
        assert_eq!(rec.level(), LEVEL_OFF);
    }

    #[test]
    fn level_gates_verbose_events() {
        let rec = Recorder::new(0, Clock::wall(), LEVEL_SPANS, 8);
        let mut ran = false;
        rec.record(LEVEL_VERBOSE, || {
            ran = true;
            instant(0)
        });
        assert!(!ran, "verbose event below the level must not build");
        rec.record(LEVEL_SPANS, || instant(1));
        assert_eq!(rec.drain().len(), 1);
        rec.set_level(LEVEL_VERBOSE);
        rec.record(LEVEL_VERBOSE, || instant(2));
        assert_eq!(rec.drain().len(), 1, "runtime level raise takes effect");
    }

    #[test]
    fn virtual_clock_timestamps_are_exact() {
        let clock = Clock::virtual_clock();
        let rec = Recorder::new(3, clock.clone(), LEVEL_VERBOSE, 8);
        clock.advance_to(TimePoint::from_nanos(1_234));
        rec.record(LEVEL_SPANS, || instant(0));
        clock.advance(Duration::from_nanos(766));
        rec.record(LEVEL_SPANS, || instant(1));
        let evs = rec.drain();
        assert_eq!(evs[0].ts_ns, 1_234);
        assert_eq!(evs[1].ts_ns, 2_000);
        assert_eq!(evs[0].rank, 3);
    }

    #[test]
    fn trace_config_env_and_builders() {
        assert!(!TraceConfig::off().is_enabled());
        assert!(TraceConfig::enabled(LEVEL_SPANS).is_enabled());
        let cfg = TraceConfig {
            level: LEVEL_VERBOSE,
            capacity: 0,
        };
        assert!(!cfg.is_enabled(), "zero capacity disables");
        let rec = cfg.recorder(0, Clock::wall());
        assert_eq!(rec.level(), LEVEL_OFF);
        assert_eq!(
            format!("{rec:?}"),
            "Recorder(off)",
            "disabled handles debug-print compactly"
        );
    }
}
