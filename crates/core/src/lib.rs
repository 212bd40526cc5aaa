//! # eager-sgd — asynchronous decentralized SGD with partial collectives
//!
//! The paper's primary contribution (Algorithm 2, Fig. 7, §5): data-parallel
//! SGD where gradient accumulation uses a *partial* allreduce, so fast
//! ranks never wait for stragglers. Late gradients become *stale*,
//! accumulate in the send buffer, and ride along with a later round;
//! divergent local weight views are repaired by periodic global model
//! synchronization.
//!
//! ```text
//! for t in 0..T:
//!     G_local  ← ∇ℓ(w_t, minibatch)              // + injected/inherent skew
//!     G_global ← (1/P) · partial_allreduce(G_local)
//!     w_{t+1}  ← w_t + U(G_global, t)
//! ```
//!
//! Components:
//! - [`trainer`]: the distributed trainer, generic over model/optimizer/
//!   workload, with all four SGD variants (the Deep500-style synchronous
//!   baseline; eager solo / majority / quorum):
//!   one training step, driven on rank threads ([`run_rank`]) or on the
//!   simulator's virtual clock ([`run_sim`]).
//! - [`workloads`]: adapters binding the `datagen` tasks to the trainer.
//! - [`metrics`]: per-epoch records (loss, accuracy, throughput,
//!   cumulative training time) that the figure harnesses serialize.
//! - [`ads`]: the logical ADS(t) round simulator of §5.1's system model —
//!   deterministic, single-threaded — used for convergence property tests
//!   with controllable quorum `Q` and staleness `τ`.
//! - [`theory`]: Theorem 5.2's learning-rate bound and iteration count.

pub mod ads;
pub mod metrics;
pub mod theory;
pub mod trainer;
pub mod workloads;

pub use metrics::{EpochRecord, TrainLog};
pub use theory::{ConvergenceParams, NapModel, NapPrediction};
pub use trainer::{run_rank, run_sim, SgdVariant, TrainerConfig};
pub use workloads::{HyperplaneWorkload, ImageWorkload, VideoWorkload, Workload};
