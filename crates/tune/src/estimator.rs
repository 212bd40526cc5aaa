//! Online skew estimation: P² streaming quantiles plus EWMA moments over
//! the per-rank arrival offsets the trainer reports every step. The
//! summary feeds `eager_sgd::theory::NapModel` — the E\[NAP\] model the
//! controllers use to reason about the quorum spectrum.

/// P² (piecewise-parabolic) single-quantile estimator
/// (Jain & Chlamtac, CACM 1985): five markers tracking the running
/// `q`-quantile in O(1) memory, no sample buffer.
#[derive(Debug, Clone)]
pub struct P2Quantile {
    q: f64,
    /// Marker heights (estimated quantile values).
    heights: [f64; 5],
    /// Marker positions (1-based sample ranks).
    pos: [f64; 5],
    /// Desired marker positions.
    desired: [f64; 5],
    /// Desired-position increments per observation.
    inc: [f64; 5],
    /// First five samples, until the markers are initialized.
    warmup: Vec<f64>,
}

impl P2Quantile {
    pub fn new(q: f64) -> Self {
        assert!((0.0..=1.0).contains(&q), "quantile in [0,1]");
        P2Quantile {
            q,
            heights: [0.0; 5],
            pos: [1.0, 2.0, 3.0, 4.0, 5.0],
            desired: [1.0, 1.0 + 2.0 * q, 1.0 + 4.0 * q, 3.0 + 2.0 * q, 5.0],
            inc: [0.0, q / 2.0, q, (1.0 + q) / 2.0, 1.0],
            warmup: Vec::with_capacity(5),
        }
    }

    pub fn push(&mut self, x: f64) {
        if self.warmup.len() < 5 {
            self.warmup.push(x);
            if self.warmup.len() == 5 {
                self.warmup
                    .sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
                for (h, w) in self.heights.iter_mut().zip(&self.warmup) {
                    *h = *w;
                }
            }
            return;
        }

        // 1. Find the cell k such that heights[k] <= x < heights[k+1],
        //    adjusting the extreme markers if needed.
        let k = if x < self.heights[0] {
            self.heights[0] = x;
            0
        } else if x >= self.heights[4] {
            self.heights[4] = x;
            3
        } else {
            let mut k = 0;
            for i in 0..4 {
                if x >= self.heights[i] && x < self.heights[i + 1] {
                    k = i;
                    break;
                }
            }
            k
        };

        // 2. Shift positions above the insertion cell; advance desires.
        for i in (k + 1)..5 {
            self.pos[i] += 1.0;
        }
        for i in 0..5 {
            self.desired[i] += self.inc[i];
        }

        // 3. Nudge the three middle markers toward their desired positions
        //    with parabolic (falling back to linear) interpolation.
        for i in 1..4 {
            let d = self.desired[i] - self.pos[i];
            let right = self.pos[i + 1] - self.pos[i];
            let left = self.pos[i - 1] - self.pos[i];
            if (d >= 1.0 && right > 1.0) || (d <= -1.0 && left < -1.0) {
                let d = d.signum();
                let candidate = self.parabolic(i, d);
                let new_h = if self.heights[i - 1] < candidate && candidate < self.heights[i + 1] {
                    candidate
                } else {
                    self.linear(i, d)
                };
                self.heights[i] = new_h;
                self.pos[i] += d;
            }
        }
    }

    fn parabolic(&self, i: usize, d: f64) -> f64 {
        let (hm, h, hp) = (self.heights[i - 1], self.heights[i], self.heights[i + 1]);
        let (nm, n, np) = (self.pos[i - 1], self.pos[i], self.pos[i + 1]);
        h + d / (np - nm)
            * ((n - nm + d) * (hp - h) / (np - n) + (np - n - d) * (h - hm) / (n - nm))
    }

    fn linear(&self, i: usize, d: f64) -> f64 {
        let j = (i as f64 + d) as usize;
        self.heights[i] + d * (self.heights[j] - self.heights[i]) / (self.pos[j] - self.pos[i])
    }

    /// The current quantile estimate (exact while fewer than five samples
    /// have been seen).
    pub fn value(&self) -> f64 {
        if self.warmup.len() < 5 {
            if self.warmup.is_empty() {
                return 0.0;
            }
            let mut v = self.warmup.clone();
            v.sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
            let idx = (self.q * (v.len() - 1) as f64).round() as usize;
            return v[idx.min(v.len() - 1)];
        }
        self.heights[2]
    }
}

/// A compact picture of the current arrival-offset distribution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SkewSummary {
    /// EWMA of the per-step mean offset (ms).
    pub mean_ms: f64,
    pub p10_ms: f64,
    pub p50_ms: f64,
    pub p90_ms: f64,
    /// Distribution spread: p90 − p10 (ms).
    pub spread_ms: f64,
    /// EWMA of the per-step max−min offset — the "how skewed is a single
    /// round" signal (ms).
    pub step_spread_ms: f64,
    /// Offset samples consumed so far.
    pub samples: u64,
}

/// The tracked quantile probabilities.
const QS: [f64; 5] = [0.1, 0.25, 0.5, 0.75, 0.9];

/// Samples per quantile window. P² markers weight all of history equally,
/// so each window's markers are restarted after this many samples and the
/// readouts folded into EWMA quantile estimates — the quantile curve then
/// tracks a skew-regime shift within a couple of windows instead of being
/// anchored to stale history forever.
const QUANTILE_WINDOW: u64 = 512;

/// EWMA weight of a freshly completed quantile window.
const WINDOW_BLEND: f64 = 0.5;

/// Streaming estimator of the arrival-offset distribution: windowed P²
/// quantiles (EWMA-blended across windows) plus per-step EWMAs, all of
/// which adapt when the skew regime shifts.
#[derive(Debug, Clone)]
pub struct SkewEstimator {
    /// P² markers of the in-progress window.
    window: Vec<(f64, P2Quantile)>,
    window_samples: u64,
    /// EWMA of completed windows' quantile readouts, `(q, value)`.
    smoothed: Option<Vec<(f64, f64)>>,
    ewma_alpha: f64,
    ewma_mean: Option<f64>,
    ewma_step_spread: Option<f64>,
    samples: u64,
}

impl SkewEstimator {
    /// `ewma_alpha` weights the newest step (0 < α ≤ 1); ~0.05–0.2 tracks
    /// shifting skew without thrashing on noise.
    pub fn new(ewma_alpha: f64) -> Self {
        assert!(ewma_alpha > 0.0 && ewma_alpha <= 1.0);
        SkewEstimator {
            window: Self::fresh_window(),
            window_samples: 0,
            smoothed: None,
            ewma_alpha,
            ewma_mean: None,
            ewma_step_spread: None,
            samples: 0,
        }
    }

    fn fresh_window() -> Vec<(f64, P2Quantile)> {
        QS.iter().map(|&q| (q, P2Quantile::new(q))).collect()
    }

    /// Feed one step's per-rank offsets.
    pub fn observe_offsets(&mut self, offsets_ms: &[f64]) {
        if offsets_ms.is_empty() {
            return;
        }
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        let mut sum = 0.0;
        for &o in offsets_ms {
            for (_, q) in &mut self.window {
                q.push(o);
            }
            lo = lo.min(o);
            hi = hi.max(o);
            sum += o;
            self.samples += 1;
            self.window_samples += 1;
        }
        if self.window_samples >= QUANTILE_WINDOW {
            self.roll_window();
        }
        let a = self.ewma_alpha;
        let mean = sum / offsets_ms.len() as f64;
        self.ewma_mean = Some(self.ewma_mean.map_or(mean, |m| m + a * (mean - m)));
        let spread = hi - lo;
        self.ewma_step_spread = Some(
            self.ewma_step_spread
                .map_or(spread, |s| s + a * (spread - s)),
        );
    }

    /// Fold the finished window's quantile readouts into the EWMA curve
    /// and restart the P² markers.
    fn roll_window(&mut self) {
        let fresh: Vec<(f64, f64)> = self.window.iter().map(|(q, e)| (*q, e.value())).collect();
        self.smoothed = Some(match self.smoothed.take() {
            None => fresh,
            Some(prev) => prev
                .iter()
                .zip(&fresh)
                .map(|(&(q, s), &(_, v))| (q, s + WINDOW_BLEND * (v - s)))
                .collect(),
        });
        self.window = Self::fresh_window();
        self.window_samples = 0;
    }

    fn quantile(&self, q: f64) -> f64 {
        // Piecewise-linear interpolation over the tracked quantile points
        // (the EWMA curve once a window completed, the in-progress window
        // before that), flat beyond the tails.
        let pts: Vec<(f64, f64)> = match &self.smoothed {
            Some(s) => s.clone(),
            None => self.window.iter().map(|(p, e)| (*p, e.value())).collect(),
        };
        if q <= pts[0].0 {
            return pts[0].1;
        }
        for w in pts.windows(2) {
            let (q0, v0) = w[0];
            let (q1, v1) = w[1];
            if q <= q1 {
                return v0 + (v1 - v0) * (q - q0) / (q1 - q0);
            }
        }
        pts[pts.len() - 1].1
    }

    pub fn summary(&self) -> SkewSummary {
        let p10 = self.quantile(0.1);
        let p90 = self.quantile(0.9);
        SkewSummary {
            mean_ms: self.ewma_mean.unwrap_or(0.0),
            p10_ms: p10,
            p50_ms: self.quantile(0.5),
            p90_ms: p90,
            spread_ms: (p90 - p10).max(0.0),
            step_spread_ms: self.ewma_step_spread.unwrap_or(0.0),
            samples: self.samples,
        }
    }

    /// Reconstruct `p` per-rank expected offsets from the quantile curve —
    /// the input `eager_sgd::NapModel` wants (offset of the i-th fastest
    /// rank ≈ quantile at (i+½)/p).
    pub fn offsets_for_model(&self, p: usize) -> Vec<f64> {
        (0..p)
            .map(|i| self.quantile((i as f64 + 0.5) / p as f64).max(0.0))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn p2_tracks_uniform_quantiles() {
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let mut q50 = P2Quantile::new(0.5);
        let mut q90 = P2Quantile::new(0.9);
        for _ in 0..20_000 {
            let x: f64 = rng.gen::<f64>() * 100.0;
            q50.push(x);
            q90.push(x);
        }
        assert!((q50.value() - 50.0).abs() < 3.0, "p50 {}", q50.value());
        assert!((q90.value() - 90.0).abs() < 3.0, "p90 {}", q90.value());
    }

    #[test]
    fn p2_is_exact_for_tiny_samples() {
        let mut q = P2Quantile::new(0.5);
        q.push(3.0);
        q.push(1.0);
        q.push(2.0);
        assert_eq!(q.value(), 2.0);
    }

    #[test]
    fn estimator_reconstructs_uniform_offsets() {
        let p = 8;
        let mut est = SkewEstimator::new(0.1);
        // Rotating linear skew 0..70 ms — the ShiftingSkew pattern.
        for step in 0..2000 {
            let offsets: Vec<f64> = (0..p).map(|r| 10.0 * (((r + step) % p) as f64)).collect();
            est.observe_offsets(&offsets);
        }
        let s = est.summary();
        assert!((s.mean_ms - 35.0).abs() < 3.0, "mean {}", s.mean_ms);
        assert!(s.spread_ms > 40.0, "spread {}", s.spread_ms);
        assert!(
            (s.step_spread_ms - 70.0).abs() < 3.0,
            "step spread {}",
            s.step_spread_ms
        );
        let model = est.offsets_for_model(p);
        assert_eq!(model.len(), p);
        assert!(model.windows(2).all(|w| w[0] <= w[1]), "sorted: {model:?}");
        // Ends should approximate the true 0 / 70 ms extremes to within
        // the flat-tail interpolation error.
        assert!(model[0] < 15.0 && model[p - 1] > 55.0, "{model:?}");
    }

    #[test]
    fn quantiles_track_a_regime_shift() {
        // P² markers are windowed + EWMA-blended, so the quantile curve
        // must forget an old regime within a few windows.
        let mut est = SkewEstimator::new(0.1);
        for _ in 0..1000 {
            est.observe_offsets(&[0.0, 2.5, 5.0, 7.5, 10.0, 2.0, 4.0, 8.0]);
        }
        assert!(est.summary().p50_ms < 10.0);
        for _ in 0..400 {
            est.observe_offsets(&[100.0, 125.0, 150.0, 175.0, 200.0, 120.0, 140.0, 180.0]);
        }
        let s = est.summary();
        assert!(s.p50_ms > 100.0, "p50 stuck at old regime: {s:?}");
        assert!(s.p90_ms > 150.0, "p90 stuck at old regime: {s:?}");
    }

    #[test]
    fn ewma_adapts_to_a_regime_shift() {
        let mut est = SkewEstimator::new(0.2);
        for _ in 0..200 {
            est.observe_offsets(&[0.0, 1.0, 2.0, 3.0]);
        }
        let before = est.summary().step_spread_ms;
        for _ in 0..200 {
            est.observe_offsets(&[0.0, 40.0, 80.0, 120.0]);
        }
        let after = est.summary().step_spread_ms;
        assert!(before < 4.0 && after > 100.0, "{before} → {after}");
    }
}
