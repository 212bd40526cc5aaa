//! # eager-sgd-repro — umbrella crate
//!
//! Re-exports the whole workspace behind one façade so examples and
//! integration tests read like downstream user code:
//!
//! ```
//! use eager_sgd_repro::prelude::*;
//!
//! let results = World::launch(WorldConfig::instant(4), |c| {
//!     let ctx = RankCtx::new(c);
//!     let mut ar = ctx.partial_allreduce(
//!         DType::F32, 4, ReduceOp::Sum,
//!         QuorumPolicy::Majority, PartialOpts::default());
//!     let out = ar.allreduce(&TypedBuf::from(vec![1.0f32; 4]));
//!     ctx.finalize();
//!     out.data.as_f32().unwrap()[0]
//! });
//! assert!(results.iter().all(|&x| x <= 4.0));
//! ```
//!
//! Crate map (bottom-up): [`obs`] clocks, flight recorder, and metrics
//! → [`comm`] rank threads and typed messages →
//! [`sched`] schedule DAG engine → [`pcoll`] partial + synchronous
//! collectives → [`tensor`]/[`nn`]/[`data`]/[`imbalance`] the DL substrate
//! → [`core`] the eager-SGD trainer and theory → [`tune`] the closed-loop
//! adaptive quorum controller.

pub use datagen as data;
pub use dnn as nn;
pub use eager_sgd as core;
pub use imbalance;
pub use minitensor as tensor;
pub use pcoll;
pub use pcoll_comm as comm;
pub use pcoll_obs as obs;
pub use pcoll_sched as sched;
pub use pcoll_tune as tune;

/// The common imports for application code.
pub mod prelude {
    pub use datagen::{GaussianMixtureTask, HyperplaneTask, VideoDatasetSpec, VideoTask};
    pub use dnn::{Batch, LossKind, Model, Momentum, Optimizer, Sgd};
    pub use eager_sgd::{
        run_rank, run_sim, HyperplaneWorkload, ImageWorkload, NapModel, QuorumTuner, SgdVariant,
        TrainLog, TrainerConfig, TunerSetup, VideoWorkload, Workload,
    };
    pub use imbalance::Injector;
    pub use minitensor::{Mat, TensorRng};
    pub use pcoll::{
        AlgoSelector, AllreduceAlgo, Hiccup, Pacing, PartialAllreduce, PartialOpts, QuorumPolicy,
        RankCtx, RoundCounters, RoundLog, SimHarness, SimReport, SimSpec, StaleMode, StepSetup,
    };
    pub use pcoll_comm::{
        DType, NetworkModel, Planet, ReduceOp, SimOpts, TypedBuf, World, WorldConfig,
    };
    pub use pcoll_tune::{
        adaptive_setup, static_setup, AdaptiveTunerCfg, ControllerKind, SkewEstimator,
    };
}
