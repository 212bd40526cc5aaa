//! # pcoll-sched — the schedule DAG engine (§4.1.1, §4.3)
//!
//! A collective operation is expressed as a *schedule*: a DAG whose vertices
//! are operations (point-to-point sends/receives, elementwise computations,
//! and NOPs) and whose edges are happens-before dependencies with AND/OR
//! logic. This crate executes schedules asynchronously on a dedicated
//! per-rank *communication thread* — the paper's "library offloading"
//! (§4.3) — so the application thread never has to progress communication
//! itself.
//!
//! Key semantics implemented here, straight from the paper:
//!
//! - **Consumable operations**: every operation fires at most once. This is
//!   what collapses multiple simultaneous initiators of a solo collective
//!   into a single execution (§4.1.1, "Multiple initiators").
//! - **Internal vs. external activation**: a schedule instance is created
//!   either because the local application entered the collective
//!   ([`Engine::activate`]) or because *any* message for that (collective,
//!   round) arrived from a faster rank — the external activation that
//!   forces slow processes to join (§4.1).
//! - **Persistent schedules**: a registered [`CollectiveTemplate`] is
//!   re-instantiated on demand for every round, "transparently replicating
//!   itself once executed" (§4.1.1, "Persistent schedules").
//! - **Latest-wins receive buffer**: completion results are delivered to
//!   the template, which (in `pcoll`) overwrites the receive buffer so it
//!   "always contains the value of the latest execution".
//!
//! The pure dependency-firing state machine lives in [`dag`] and is
//! property-tested in isolation; [`engine`] adds buffers, matching, and the
//! progress thread.

#![forbid(unsafe_code)]

pub mod dag;
pub mod engine;
pub mod op;

pub use dag::DagState;
pub use engine::{
    CmdQueue, CollectiveTemplate, Engine, EngineCore, EngineStats, RoundStats, TemplateHost,
};
pub use op::{
    DepMode, Op, OpId, OpKind, Schedule, ScheduleBuilder, Slot, SnapshotTiming, CONTRIB_SLOT,
};
