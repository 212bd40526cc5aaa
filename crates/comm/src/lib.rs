//! # pcoll-comm — message-passing substrate
//!
//! This crate provides the communication layer that the partial-collective
//! engine (`pcoll-sched`, `pcoll`) is built on. It plays the role that
//! Cray MPICH played in the paper: reliable, tagged, point-to-point message
//! delivery between `P` ranks.
//!
//! Three backends sit behind the same [`CommHandle`] / [`Inbox`] API; a
//! [`Transport`] (`quickstart`'s `--transport inproc|tcp`) selects
//! between the first two, and the simulator is a world of its own:
//!
//! - **In-process** (the [`World::launch`] default): ranks are OS threads
//!   inside one process, messages move over channels — zero setup cost,
//!   the right tool for unit tests and single-host experiments.
//! - **TCP** ([`World::launch_tcp`]; `tcp_smoke`, `quickstart --transport tcp`):
//!   each rank is its own OS process on loopback sockets with
//!   length-prefixed binary framing, a parent-coordinated rendezvous, and
//!   an orderly goodbye handshake — real process-level SPMD, honest
//!   latency, and a process-skew scenario axis (see the [`transport`]
//!   module).
//! - **Sim** ([`sim::SimWorld`], which `pcoll`'s `SimHarness` and the
//!   `sim_scale` harness drive; there is no `--transport` value for it):
//!   a single-process discrete-event simulator with a virtual [`Clock`],
//!   a priority-queue event schedule, and deliveries drawn from a
//!   region-to-region [`sim::Planet`] latency matrix composed with the
//!   [`NetworkModel`] — P = 1,024+ rank experiments on one box,
//!   bit-identical at a fixed seed (see the [`sim`] module).
//!
//! All three preserve per-(src, dst) FIFO ordering (the MPI
//! non-overtaking rule). Modelled per-message latency (`alpha + bytes *
//! beta + jitter`, a [`NetworkModel`]) exists on the simulator's virtual
//! clock only ([`SimOpts::network`]); the other two deliver as fast as
//! the host does. Code above the transport reads time through the
//! [`Clock`] handle (the [`time`] module, re-exported from `pcoll_obs`): wall time on the
//! first two backends, virtual time under the simulator. The same crate
//! supplies the flight [`Recorder`] every rank carries on its
//! [`CommStats`] ([`WorldConfig::with_trace`] or `PCOLL_TRACE=1|2` turn
//! it on); see `pcoll_obs` for the event schema and Perfetto export.
//!
//! Design notes:
//! - Buffers are **typed** ([`TypedBuf`]) rather than raw bytes; the TCP
//!   wire format is the raw little-endian element bytes.
//! - There is **one element-wise kernel** (the private `kernel` module): a
//!   sealed element trait for `f32`/`f64`/`i32`/`i64`, a borrowed source
//!   operand that is either a typed slice or undecoded wire bytes, one
//!   `fold` (`out = out ⊕ src` in place, or the fused `out = acc ⊕ src`
//!   into a separate buffer), one `store` (copy or decode) and one range
//!   check. [`TypedBuf`], [`Payload`] and [`Matcher`] resolve the dtype,
//!   check shapes and call it; the loops are monomorphised per element
//!   type, source form and operator so the compiler vectorises them, and
//!   the crate forbids `unsafe`.
//! - Payloads are **shared** ([`Payload`], an `Arc`-backed buffer): fanning
//!   one tensor out to many destinations bumps a reference count per copy
//!   instead of cloning element data, and mutation is copy-on-write.
//! - Every send route is a **bounded queue** ([`WorldConfig::queue_capacity`]):
//!   a sender that outruns a slow consumer blocks for space (backpressure)
//!   instead of ballooning memory, panicking with a diagnostic after
//!   [`WorldConfig::queue_deadline`]. Queue pressure is counted per rank
//!   in [`CommStats`].
//! - Messages are matched downstream on [`WireTag`] = (collective id, round,
//!   semantic tag); this crate only transports them.
//! - The [`Matcher`] offers blocking point-to-point receive for direct use
//!   (tests, simple algorithms); the schedule engine instead takes the raw
//!   [`Inbox`] and performs its own matching.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod buf;
mod kernel;
pub mod matcher;
pub mod membership;
pub mod net;
pub mod payload;
pub mod sim;
pub mod stats;
pub mod tag;
pub mod transport;
pub mod world;

pub use pcoll_obs::time;

pub use buf::{BufError, DType, ReduceOp, TypedBuf};
pub use matcher::Matcher;
pub use membership::Membership;
pub use net::NetworkModel;
pub use payload::Payload;
pub use pcoll_obs::time::{Clock, TimePoint};
pub use pcoll_obs::{Recorder, TraceConfig};
pub use sim::{Fault, FaultPlan, Planet, Region, SimEvent, SimOpts, SimWorld};
pub use stats::{CommStats, CommStatsSnapshot};
pub use tag::{CollId, Message, Rank, WireTag};
pub use transport::{
    is_tcp_rejoiner, is_tcp_worker, launch_tcp_tolerant, RendezvousClient, TcpOpts, Transport,
};
pub use world::{
    CommHandle, Communicator, Envelope, Inbox, World, WorldConfig, DEFAULT_QUEUE_CAPACITY,
    DEFAULT_QUEUE_DEADLINE,
};
