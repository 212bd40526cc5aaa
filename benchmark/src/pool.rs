//! The benchmark-owned `Workload`: batches generated from the seed during
//! set-up and served from memory, so the trainer receives only generated
//! inputs and a step never waits on the random-number generator.

use crate::spec::Spec;
use dnn::Batch;
use eager_sgd::Workload;
use minitensor::TensorRng;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// A workload's generated inputs.
pub struct Inputs {
    pool: Vec<Batch>,
    held_out: Batch,
}

impl Inputs {
    pub fn generate(spec: &Spec, seed: u64) -> Inputs {
        let (pool, held_out) = spec.generate_inputs(seed);
        Inputs { pool, held_out }
    }

    pub fn held_out(&self) -> &Batch {
        &self.held_out
    }
}

/// Serves rank `r`'s batch for step `s` as `pool[(s·P + r) mod len]`, and
/// stamps the moment each step asked for its batch. With tracing off the
/// one stamp per step is the only thing the benchmark adds to a step.
pub struct PoolWorkload<'a> {
    inputs: &'a Inputs,
    p: usize,
    epoch: Instant,
    /// Nanoseconds since `epoch` at which step `i` called `sample`;
    /// allocated before the run, written once each.
    stamps: Vec<AtomicU64>,
}

impl<'a> PoolWorkload<'a> {
    pub fn new(inputs: &'a Inputs, p: usize, steps: usize) -> Self {
        PoolWorkload {
            inputs,
            p,
            epoch: Instant::now(),
            stamps: (0..steps).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// The per-step stamps (ns since the workload was built).
    pub fn stamps(&self) -> Vec<u64> {
        self.stamps
            .iter()
            .map(|s| s.load(Ordering::Relaxed))
            .collect()
    }
}

impl Workload for PoolWorkload<'_> {
    fn sample(&self, rank: usize, step: u64, _rng: &mut TensorRng) -> Batch {
        if let Some(slot) = self.stamps.get(step as usize) {
            slot.store(self.epoch.elapsed().as_nanos() as u64, Ordering::Relaxed);
        }
        let pool = &self.inputs.pool;
        pool[(step as usize * self.p + rank) % pool.len()].clone()
    }

    fn test_batches(&self) -> Vec<Batch> {
        vec![self.inputs.held_out.clone()]
    }
}

/// Step durations from the stamps of a run of `windows` windows of
/// `window_steps` steps: the time from one step's `sample` to the next,
/// within a window. The last step of each window has no successor inside
/// the training clock (evaluation and barriers follow), so it is left out.
pub fn step_durations_ns(stamps: &[u64], window_steps: usize) -> Vec<u64> {
    stamps
        .chunks(window_steps)
        .flat_map(|w| w.windows(2).map(|pair| pair[1].saturating_sub(pair[0])))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn step_durations_skip_window_boundaries() {
        // Two windows of three steps; the 1000 ns gap between them is
        // evaluation time and must not appear as a step.
        let stamps = [0, 10, 25, 1025, 1035, 1050];
        assert_eq!(step_durations_ns(&stamps, 3), vec![10, 15, 10, 15]);
    }
}
