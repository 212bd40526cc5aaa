//! Spectrum-wide predictions: convenience wrappers around
//! `eager_sgd::theory::NapModel` that evaluate every arm of the quorum
//! spectrum at once — used to seed controllers, to compute the
//! theory-optimal arm in tests, and by the `tune_adaptive` bench to report
//! predicted vs. measured utilities.

use crate::controller::spectrum;
use eager_sgd::{NapModel, NapPrediction};
use pcoll::QuorumPolicy;

/// One arm's prediction.
#[derive(Debug, Clone)]
pub struct ArmPrediction {
    /// Policy label (`solo`, `first-of-4`, …).
    pub policy: String,
    pub prediction: NapPrediction,
    /// `(E[NAP]/P)^β / round_s` — the controllers' objective.
    pub utility: f64,
}

/// Predict every spectrum arm under the given per-rank arrival offsets.
pub fn predict_spectrum(
    offsets_ms: &[f64],
    comm_ms: f64,
    base_ms: f64,
    beta: f64,
) -> Vec<(QuorumPolicy, ArmPrediction)> {
    let model = NapModel::new(offsets_ms.to_vec(), comm_ms, base_ms);
    spectrum(offsets_ms.len())
        .into_iter()
        .map(|policy| {
            let prediction = model.predict(policy);
            (
                policy,
                ArmPrediction {
                    policy: policy.to_string(),
                    prediction,
                    utility: model.utility(policy, beta),
                },
            )
        })
        .collect()
}

/// The arm the theory model ranks best under these offsets.
pub fn theory_optimal(offsets_ms: &[f64], comm_ms: f64, base_ms: f64, beta: f64) -> QuorumPolicy {
    let model = NapModel::new(offsets_ms.to_vec(), comm_ms, base_ms);
    model.best_policy(&spectrum(offsets_ms.len()), beta)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn predicts_every_arm_and_picks_a_consistent_optimum() {
        let offsets: Vec<f64> = (0..8).map(|i| 20.0 * i as f64).collect();
        let preds = predict_spectrum(&offsets, 1.0, 5.0, 0.5);
        assert_eq!(preds.len(), spectrum(8).len());
        let best = theory_optimal(&offsets, 1.0, 5.0, 0.5);
        let max_by_utility = preds
            .iter()
            .max_by(|a, b| a.1.utility.partial_cmp(&b.1.utility).unwrap())
            .unwrap()
            .0;
        assert_eq!(best, max_by_utility);
    }
}
