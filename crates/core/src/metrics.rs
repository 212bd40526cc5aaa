//! Training metrics: what the figure harnesses plot.

use dnn::EvalMetrics;
use serde::{Deserialize, Serialize};

/// Evaluation numbers in serializable form.
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct EvalRecord {
    pub loss: f32,
    pub top1: f32,
    pub top5: f32,
}

impl From<EvalMetrics> for EvalRecord {
    fn from(e: EvalMetrics) -> Self {
        EvalRecord {
            loss: e.loss,
            top1: e.top1,
            top5: e.top5,
        }
    }
}

/// One epoch boundary: the paper's plots are points at epoch boundaries
/// with cumulative *training* time on the x-axis (evaluation time
/// excluded).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EpochRecord {
    pub epoch: usize,
    /// Cumulative training-loop seconds up to this boundary.
    pub train_time_s: f64,
    /// Mean step loss over this epoch (local to this rank).
    pub mean_loss: f32,
    /// Steps per second over this epoch (0 when the epoch took no time).
    pub throughput: f64,
    /// Test-set evaluation (rank 0 only, when scheduled).
    pub test: Option<EvalRecord>,
    /// Train-set evaluation (rank 0 only, when scheduled).
    pub train: Option<EvalRecord>,
}

/// `steps / secs`, or 0 when no time passed: on virtual time an epoch
/// with nothing to wait for takes none.
pub(crate) fn rate(steps: u64, secs: f64) -> f64 {
    if secs == 0.0 {
        return 0.0;
    }
    steps as f64 / secs
}

/// Full per-rank training log.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TrainLog {
    pub rank: usize,
    pub epochs: Vec<EpochRecord>,
    /// Rounds where this rank's fresh gradient made it into its own round.
    pub fresh_rounds: u64,
    /// Rounds whose requested result had been superseded (staleness events).
    pub missed_rounds: u64,
    /// Total steps executed.
    pub steps: u64,
    /// Total training time on the rank's clock (s): wall time on a rank
    /// thread or process, virtual time under the simulator.
    pub total_train_s: f64,
}

impl TrainLog {
    pub fn new(rank: usize) -> Self {
        TrainLog {
            rank,
            epochs: Vec::new(),
            fresh_rounds: 0,
            missed_rounds: 0,
            steps: 0,
            total_train_s: 0.0,
        }
    }

    /// Mean throughput over all epochs (steps/s).
    pub fn mean_throughput(&self) -> f64 {
        rate(self.steps, self.total_train_s)
    }

    /// Last recorded test evaluation.
    pub fn final_test(&self) -> Option<EvalRecord> {
        self.epochs.iter().rev().find_map(|e| e.test)
    }

    /// Final training loss (mean of last epoch).
    pub fn final_loss(&self) -> Option<f32> {
        self.epochs.last().map(|e| e.mean_loss)
    }

    /// Training time (s) at the first evaluated epoch whose held-out loss
    /// is at most `target`; `None` if no evaluation reached it. Only rank
    /// 0 evaluates, so read rank 0's log.
    pub fn time_to_loss_s(&self, target: f32) -> Option<f64> {
        let reached = |e: &&EpochRecord| e.test.is_some_and(|t| t.loss <= target);
        self.epochs.iter().find(reached).map(|e| e.train_time_s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn throughput_is_steps_over_time() {
        let mut log = TrainLog::new(0);
        log.steps = 100;
        log.total_train_s = 4.0;
        assert_eq!(log.mean_throughput(), 25.0);
    }

    #[test]
    fn final_test_finds_last_eval() {
        let mut log = TrainLog::new(0);
        log.epochs.push(EpochRecord {
            epoch: 0,
            train_time_s: 1.0,
            mean_loss: 2.0,
            throughput: 1.0,
            test: Some(EvalRecord {
                loss: 1.0,
                top1: 0.5,
                top5: 0.9,
            }),
            train: None,
        });
        log.epochs.push(EpochRecord {
            epoch: 1,
            train_time_s: 2.0,
            mean_loss: 1.0,
            throughput: 1.0,
            test: None,
            train: None,
        });
        assert_eq!(log.final_test().unwrap().top1, 0.5);
        assert_eq!(log.final_loss().unwrap(), 1.0);
    }

    #[test]
    fn time_to_loss_is_the_first_evaluated_epoch_at_or_below_target() {
        let mut log = TrainLog::new(0);
        for (epoch, loss) in [Some(4.0), None, Some(2.0), Some(3.0), Some(1.0)]
            .into_iter()
            .enumerate()
        {
            log.epochs.push(EpochRecord {
                epoch,
                train_time_s: 10.0 * (epoch + 1) as f64,
                mean_loss: 0.0,
                throughput: 1.0,
                test: loss.map(|loss| EvalRecord {
                    loss,
                    top1: 0.0,
                    top5: 0.0,
                }),
                train: None,
            });
        }
        // Reached mid-run: epoch 2 is the first at or below 2.5, and the
        // later rise to 3.0 does not matter.
        assert_eq!(log.time_to_loss_s(2.5), Some(30.0));
        assert_eq!(log.time_to_loss_s(2.0), Some(30.0));
        // Reached only at the last epoch.
        assert_eq!(log.time_to_loss_s(1.5), Some(50.0));
        // Never reached.
        assert_eq!(log.time_to_loss_s(0.5), None);
    }

    #[test]
    fn serializes_to_json() {
        let log = TrainLog::new(3);
        let s = serde_json::to_string(&log).unwrap();
        assert!(s.contains("\"rank\":3"));
    }
}
