//! Decorators around the trainer's three plug-in points (`dyn Model`,
//! `dyn Optimizer`, `dyn Workload`): each times the call into the layer
//! behind it and passes arguments and results through untouched.

use crate::spans::{Kind, SpanSink};
use dnn::{Batch, EvalMetrics, Model, Optimizer};
use eager_sgd::Workload;
use minitensor::TensorRng;
use std::time::Instant;

pub struct TracedModel<'a> {
    pub inner: &'a mut dyn Model,
    pub sink: &'a SpanSink,
}

impl Model for TracedModel<'_> {
    fn num_params(&self) -> usize {
        self.inner.num_params()
    }

    fn param_sizes(&self) -> Vec<usize> {
        self.inner.param_sizes()
    }

    fn grad_step(&mut self, batch: &Batch) -> f32 {
        let t0 = Instant::now();
        let loss = self.inner.grad_step(batch);
        self.sink.record(Kind::GradStep, t0, Instant::now());
        loss
    }

    fn write_grads(&self, out: &mut [f32]) {
        let t0 = Instant::now();
        self.inner.write_grads(out);
        self.sink.record(Kind::WriteGrads, t0, Instant::now());
    }

    fn write_params(&self, out: &mut [f32]) {
        self.inner.write_params(out);
    }

    fn read_params(&mut self, src: &[f32]) {
        self.inner.read_params(src);
    }

    fn apply_delta(&mut self, delta: &[f32]) {
        let t0 = Instant::now();
        self.inner.apply_delta(delta);
        self.sink.record(Kind::ApplyDelta, t0, Instant::now());
    }

    fn evaluate(&mut self, batch: &Batch) -> EvalMetrics {
        self.inner.evaluate(batch)
    }
}

pub struct TracedOptimizer<'a> {
    pub inner: &'a mut dyn Optimizer,
    pub sink: &'a SpanSink,
}

impl Optimizer for TracedOptimizer<'_> {
    fn delta(&mut self, grads: &[f32], out: &mut [f32]) {
        let t0 = Instant::now();
        self.inner.delta(grads, out);
        self.sink.record(Kind::OptDelta, t0, Instant::now());
    }

    fn lr(&self) -> f32 {
        self.inner.lr()
    }

    fn set_lr(&mut self, lr: f32) {
        self.inner.set_lr(lr);
    }
}

pub struct TracedWorkload<'a> {
    pub inner: &'a dyn Workload,
    pub sink: &'a SpanSink,
}

impl Workload for TracedWorkload<'_> {
    fn sample(&self, rank: usize, step: u64, rng: &mut TensorRng) -> Batch {
        self.sink.set_step(step);
        let t0 = Instant::now();
        let batch = self.inner.sample(rank, step, rng);
        self.sink.record(Kind::Sample, t0, Instant::now());
        batch
    }

    fn test_batches(&self) -> Vec<Batch> {
        self.inner.test_batches()
    }

    fn train_batches(&self) -> Vec<Batch> {
        self.inner.train_batches()
    }
}
