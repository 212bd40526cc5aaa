//! `pcoll_obs` — observability substrate for the partial-collectives
//! stack: the [`Clock`] abstraction, a per-rank flight recorder and a
//! Perfetto trace exporter.
//!
//! This crate sits *below* `pcoll_comm` so every layer (transport,
//! scheduler, collectives, trainer) can record into the same
//! event stream without dependency cycles:
//!
//! - [`time`] — `Clock`/`TimePoint`: one clock interface over wall time
//!   (inproc/TCP) and virtual time (the discrete-event simulator).
//! - [`event`] — the typed trace schema ([`TraceEvent`]/[`EventKind`]):
//!   message traffic, engine ops, round lifecycle, queue stalls,
//!   membership changes.
//! - [`recorder`] — the bounded, overwrite-oldest ring ([`Recorder`] /
//!   [`FlightRecorder`]) with a level gate whose disabled path costs one
//!   relaxed atomic load.
//! - [`perfetto`] — Chrome/Perfetto trace-event JSON export
//!   ([`perfetto_trace`]) plus a schema validator
//!   ([`validate_perfetto`]) so generated traces are checked in CI.
//!
//! Because timestamps come from [`Clock`], the *same* instrumentation
//! produces wall-time traces on real transports and bit-deterministic
//! virtual-time traces under the simulator — two same-seed sim runs
//! emit byte-identical trace files (a tested invariant).

#![deny(missing_docs)]

pub mod event;
pub mod perfetto;
pub mod recorder;
pub mod time;

pub use event::{EventKind, TraceEvent};
pub use perfetto::{fnv1a, perfetto_trace, validate_perfetto, TraceSummary};
pub use recorder::{
    FlightRecorder, Recorder, TraceConfig, ENV_TRACE, ENV_TRACE_CAP, LEVEL_OFF, LEVEL_SPANS,
    LEVEL_VERBOSE,
};
pub use time::{Clock, TimePoint};
