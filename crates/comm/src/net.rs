//! The network latency model: what one message costs in modelled time,
//! `alpha + wire_bytes * beta + jitter`.
//!
//! Only the simulator charges it ([`crate::SimOpts::network`]): a
//! [`crate::SimWorld`] adds it to the planet's region latency on its
//! virtual clock. The thread and TCP worlds deliver as fast as the host
//! does and cannot be given a model.

use std::time::Duration;

/// Latency model applied to every message.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum NetworkModel {
    /// Zero modeled latency: a message lands at the virtual instant it
    /// was sent (plus the planet's region latency, if any).
    Instant,
    /// First-order alpha-beta (LogP-flavoured) model with uniform jitter.
    AlphaBeta {
        /// Per-message base latency.
        alpha: Duration,
        /// Transfer cost in nanoseconds per wire byte (1/bandwidth).
        beta_ns_per_byte: f64,
        /// Uniform random extra delay in `[0, jitter]` (system noise, §1).
        jitter: Duration,
    },
}

impl NetworkModel {
    /// An HPC-interconnect-flavoured model (µs-scale alpha, ~10 GiB/s).
    pub fn hpc() -> Self {
        NetworkModel::AlphaBeta {
            alpha: Duration::from_micros(25),
            beta_ns_per_byte: 0.1,
            jitter: Duration::from_micros(5),
        }
    }

    /// A cloud-Ethernet-flavoured model (higher alpha, ~1 GiB/s, jittery).
    pub fn cloud() -> Self {
        NetworkModel::AlphaBeta {
            alpha: Duration::from_micros(150),
            beta_ns_per_byte: 1.0,
            jitter: Duration::from_micros(100),
        }
    }

    /// Latency charged to a message of `bytes` wire bytes, excluding jitter.
    pub fn base_latency(&self, bytes: usize) -> Duration {
        match self {
            NetworkModel::Instant => Duration::ZERO,
            NetworkModel::AlphaBeta {
                alpha,
                beta_ns_per_byte,
                ..
            } => *alpha + Duration::from_nanos((bytes as f64 * beta_ns_per_byte) as u64),
        }
    }

    /// Upper bound of the uniform per-message jitter.
    pub(crate) fn jitter(&self) -> Duration {
        match self {
            NetworkModel::Instant => Duration::ZERO,
            NetworkModel::AlphaBeta { jitter, .. } => *jitter,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn instant_model_has_zero_latency() {
        assert_eq!(NetworkModel::Instant.base_latency(1 << 20), Duration::ZERO);
    }

    #[test]
    fn alpha_beta_latency_grows_with_size() {
        let m = NetworkModel::hpc();
        assert!(m.base_latency(1 << 22) > m.base_latency(64));
    }
}
