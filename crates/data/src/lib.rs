//! # datagen — synthetic datasets with paper-matched shapes
//!
//! The reproduction has no CIFAR-10 / ImageNet / UCF101 / WMT16 on disk,
//! so every dataset here is a *seeded generator* whose statistically
//! relevant properties match what the paper's experiments actually
//! exercise — the dataset substitutions are the list below, the
//! model-side table is in the [`dnn::zoo`] module docs:
//!
//! - [`hyperplane`]: the paper's own synthetic task (§6.2.1), implemented
//!   verbatim: `y = a·x + noise` in 8,192 dimensions.
//! - [`images`]: Gaussian-mixture classification batches — learnable
//!   class structure with controllable difficulty, standing in for
//!   CIFAR-10/ImageNet. Balanced per-batch compute, as in the paper
//!   (imbalance comes from injection there, not the data).
//! - [`video`]: variable-length feature sequences whose length
//!   distribution is fitted to UCF101's (29–1776 frames, median ≈ 167,
//!   right-skewed — Fig. 2a) plus the §2.1 length-bucketing used for
//!   training. This is the *inherently imbalanced* workload of §6.3.
//! - [`text`]: sentence-length sampler matched to the WMT16 runtime
//!   spread of Fig. 3 (motivation histogram only).

pub mod hyperplane;
pub mod images;
pub mod text;
pub mod video;

pub use hyperplane::HyperplaneTask;
pub use images::GaussianMixtureTask;
pub use video::{VideoDatasetSpec, VideoTask};
