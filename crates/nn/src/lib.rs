//! # dnn — neural-network substrate
//!
//! A compact deep-learning stack standing in for the paper's
//! TensorFlow models: dense feed-forward layers with manual backprop, an
//! LSTM with full-sequence BPTT (sequences arrive bucketed to uniform
//! length, as in §2.1), softmax cross-entropy and MSE losses, and
//! flat-vector SGD/momentum optimizers. The paper's ResNets train as
//! dense residual proxies ([`zoo`]), so there is no convolution layer.
//!
//! The distributed trainer (`eager-sgd`) talks to models through the
//! [`Model`] trait, whose contract is exactly what data-parallel SGD
//! needs: *compute a local gradient, expose it as one flat `f32` buffer,
//! apply a flat update, and read/write flat parameters* (for the periodic
//! model synchronization of §5). Gradient fusion into a single buffer is
//! the same trick Horovod's tensor fusion plays — one allreduce per step.

pub mod layers;
pub mod loss;
pub mod lstm;
pub mod model;
pub mod optim;
pub mod param;
pub mod zoo;

pub use layers::{Dense, Relu, Residual, Sequential, Sigmoid, Tanh};
pub use loss::LossKind;
pub use lstm::LstmClassifier;
pub use model::{Batch, DenseBatch, EvalMetrics, FeedForward, Model, SeqBatch, Target};
pub use optim::{Momentum, Optimizer, Sgd};
pub use param::Param;
