//! Size-adaptive allreduce algorithm selection.
//!
//! The paper's §7 ablation observes that "the optimal algorithm depends
//! on network topology, number of processes, and message size". This
//! module is that observation turned into a data-path policy: small
//! messages run the latency-optimal whole-tensor recursive doubling
//! (`O(log P)` rounds, `O(n log P)` bytes per rank), large messages run
//! the bandwidth-optimal segmented reduce-scatter + allgather ring
//! (`2 (P-1)/P · n` bytes per rank, pipelined across segments).
//!
//! Selection must be SPMD-consistent: every rank evaluates the same pure
//! function of `(message bytes, P)` — plus an explicit override knob for
//! ablations and benches — so all ranks build structurally matching
//! schedules without communicating.

use pcoll_comm::DType;
use std::fmt;

/// Which data-phase algorithm a partial allreduce round runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AllreduceAlgo {
    /// Whole-tensor recursive doubling (the paper's implementation
    /// shape): latency-optimal, the small-message regime.
    RecursiveDoubling,
    /// Segmented reduce-scatter + allgather ring with segment
    /// pipelining: bandwidth-optimal, the large-message regime.
    SegmentedRing,
}

impl fmt::Display for AllreduceAlgo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AllreduceAlgo::RecursiveDoubling => write!(f, "recursive-doubling"),
            AllreduceAlgo::SegmentedRing => write!(f, "segmented-ring"),
        }
    }
}

/// Per-collective algorithm policy: pick from message size and P, or pin
/// explicitly. Threaded through `PartialOpts` (the collective builder)
/// and `eager_sgd::TrainerConfig` (the training knob).
///
/// ```
/// use pcoll::{AlgoSelector, AllreduceAlgo};
///
/// let sel = AlgoSelector::default();
/// // Small message: latency-optimal recursive doubling.
/// assert_eq!(sel.choose(4 * 1024, 8), AllreduceAlgo::RecursiveDoubling);
/// // Large message over enough ranks: bandwidth-optimal segmented ring.
/// assert_eq!(sel.choose(8 << 20, 8), AllreduceAlgo::SegmentedRing);
/// // P = 2: the ring has no bandwidth edge, doubling regardless of size.
/// assert_eq!(sel.choose(8 << 20, 2), AllreduceAlgo::RecursiveDoubling);
/// // The ablation knob pins every round.
/// let pinned = AlgoSelector::pinned(AllreduceAlgo::SegmentedRing);
/// assert_eq!(pinned.choose(1, 2), AllreduceAlgo::SegmentedRing);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AlgoSelector {
    /// Explicit override: `Some(algo)` pins every round to `algo`
    /// regardless of size (the bench/ablation knob). `None` = adaptive.
    pub pin: Option<AllreduceAlgo>,
    /// Adaptive crossover: messages of at least this many bytes take the
    /// segmented-ring path (when `P` is large enough for the ring to
    /// win). Default measured by the `coll_micro` sweep.
    pub ring_threshold_bytes: usize,
    /// Target segment size for the segmented schedule; the tensor is
    /// split into `ceil(bytes / segment_bytes)` independently pipelined
    /// segments, each ring-chunked across the P ranks.
    pub segment_bytes: usize,
    /// How many segments may be in flight at once. The schedule gates
    /// segment `k`'s first sends on segment `k - depth`'s completion, so
    /// a round's instantaneous queue footprint is bounded by the window
    /// — backpressure composes with `WorldConfig::queue_capacity`
    /// instead of racing it.
    pub pipeline_depth: usize,
}

/// Measured on the `coll_micro` sweep (P=8, in-process), re-checked
/// after the allocation diet: recursive doubling wins up to 64 KiB, the
/// two tie near 256 KiB, and the segmented ring wins from there up
/// (~1.5x at 8 MiB — the diet sped whole-tensor doubling up ~2x, so the
/// crossover held but the large-end gap compressed from >3x). On TCP the
/// ring wins from 64 KiB, so the shared threshold leans low.
pub const DEFAULT_RING_THRESHOLD_BYTES: usize = 128 * 1024;
/// Default segment size, re-measured on the `coll_micro` sweep after the
/// zero-copy chunk extraction and pooled assembly landed (larger
/// segments amortize per-message engine overhead better now that chunk
/// extraction moves no bytes): 4 MiB beats 2 MiB by ~5–10% at 8 MiB
/// tensors while multi-MiB tensors still pipeline.
pub const DEFAULT_SEGMENT_BYTES: usize = 4 * 1024 * 1024;
/// Default pipeline window (segments in flight).
pub const DEFAULT_PIPELINE_DEPTH: usize = 4;

impl Default for AlgoSelector {
    fn default() -> Self {
        AlgoSelector {
            pin: None,
            ring_threshold_bytes: DEFAULT_RING_THRESHOLD_BYTES,
            segment_bytes: DEFAULT_SEGMENT_BYTES,
            pipeline_depth: DEFAULT_PIPELINE_DEPTH,
        }
    }
}

impl AlgoSelector {
    /// Pin every round to `algo` (the override knob).
    pub fn pinned(algo: AllreduceAlgo) -> Self {
        AlgoSelector {
            pin: Some(algo),
            ..AlgoSelector::default()
        }
    }

    /// Pin to the segmented ring with an explicit segment size (benches
    /// and tests that need a specific segment count).
    pub fn segmented(segment_bytes: usize) -> Self {
        AlgoSelector {
            pin: Some(AllreduceAlgo::SegmentedRing),
            segment_bytes,
            ..AlgoSelector::default()
        }
    }

    /// The algorithm for one collective of `message_bytes` over `p`
    /// ranks. Pure and deterministic — the SPMD consensus requirement.
    pub fn choose(&self, message_bytes: usize, p: usize) -> AllreduceAlgo {
        if let Some(algo) = self.pin {
            return algo;
        }
        // The ring sends 2(P-1)/P·n vs recursive doubling's n·log2(P):
        // at P=2 the byte counts tie and doubling's single exchange wins
        // on latency, so the adaptive path needs both a large message
        // and enough ranks for the bandwidth gap to exist.
        if p >= 4 && message_bytes >= self.ring_threshold_bytes {
            AllreduceAlgo::SegmentedRing
        } else {
            AllreduceAlgo::RecursiveDoubling
        }
    }

    /// Segment length in elements for a buffer of `dtype`.
    pub fn segment_elems(&self, dtype: DType) -> usize {
        (self.segment_bytes / dtype.size_of()).max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adaptive_crossover_follows_size_and_p() {
        let s = AlgoSelector::default();
        assert_eq!(s.choose(4 << 10, 8), AllreduceAlgo::RecursiveDoubling);
        assert_eq!(s.choose(8 << 20, 8), AllreduceAlgo::SegmentedRing);
        assert_eq!(
            s.choose(s.ring_threshold_bytes, 4),
            AllreduceAlgo::SegmentedRing
        );
        assert_eq!(
            s.choose(s.ring_threshold_bytes - 1, 4),
            AllreduceAlgo::RecursiveDoubling
        );
        // P=2: doubling regardless of size.
        assert_eq!(s.choose(8 << 20, 2), AllreduceAlgo::RecursiveDoubling);
    }

    #[test]
    fn pin_overrides_the_size_rule() {
        let pin_rd = AlgoSelector::pinned(AllreduceAlgo::RecursiveDoubling);
        assert_eq!(pin_rd.choose(8 << 20, 8), AllreduceAlgo::RecursiveDoubling);
        let pin_ring = AlgoSelector::pinned(AllreduceAlgo::SegmentedRing);
        assert_eq!(pin_ring.choose(64, 8), AllreduceAlgo::SegmentedRing);
    }

    #[test]
    fn segment_elems_respects_dtype_width() {
        let s = AlgoSelector {
            segment_bytes: 1024,
            ..AlgoSelector::default()
        };
        assert_eq!(s.segment_elems(DType::F32), 256);
        assert_eq!(s.segment_elems(DType::F64), 128);
        let tiny = AlgoSelector {
            segment_bytes: 1,
            ..AlgoSelector::default()
        };
        assert_eq!(tiny.segment_elems(DType::F64), 1, "never zero");
    }
}
