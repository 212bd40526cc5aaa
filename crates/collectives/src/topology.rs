//! Communication-topology math shared by the schedule builders:
//! recursive-doubling partners and the per-round initiator / candidate
//! selection that majority and quorum collectives rely on.

use pcoll_comm::{CollId, Rank};
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// `log2(p)` for a power-of-two `p`.
pub fn log2_exact(p: usize) -> u32 {
    debug_assert!(p.is_power_of_two());
    p.trailing_zeros()
}

/// The recursive-doubling data phase pairs rank `r` with `r XOR 2^k` and
/// therefore requires a power-of-two world size (every evaluation in the
/// paper uses 8, 32 or 64 ranks); the segmented ring runs partial
/// collectives on any other size. Panics with a clear message otherwise.
pub fn require_power_of_two(p: usize) {
    assert!(
        p.is_power_of_two(),
        "the recursive-doubling data phase requires a power-of-two number of \
         ranks, got {p} (the paper's implementation has the same shape)"
    );
}

/// The recursive-doubling partner of `rank` at `level`.
#[inline]
pub fn rd_partner(rank: Rank, level: u32) -> Rank {
    rank ^ (1usize << level)
}

/// Deterministic per-round RNG shared by all ranks: seeded from the world
/// seed, the collective id, and the round number. "Consensus is achieved
/// by using the same seed for all the processes" (§4.2).
fn round_rng(seed: u64, coll: CollId, round: u64) -> ChaCha8Rng {
    // SplitMix-style mixing of the three components into one 64-bit seed.
    let mut z = seed
        .wrapping_add(0x9E3779B97F4A7C15u64.wrapping_mul(coll.0 as u64 + 1))
        .wrapping_add(round.wrapping_mul(0xBF58476D1CE4E5B9));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^= z >> 31;
    ChaCha8Rng::seed_from_u64(z)
}

/// The `m` distinct candidate ranks for round `round` (initiator order for
/// chain quorums). All ranks compute the identical list.
pub fn round_candidates(seed: u64, coll: CollId, round: u64, p: usize, m: usize) -> Vec<Rank> {
    let m = m.min(p);
    let mut rng = round_rng(seed, coll, round);
    let mut ranks: Vec<Rank> = (0..p).collect();
    ranks.shuffle(&mut rng);
    ranks.truncate(m);
    ranks
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log2_of_powers() {
        assert_eq!(log2_exact(1), 0);
        assert_eq!(log2_exact(2), 1);
        assert_eq!(log2_exact(64), 6);
    }

    #[test]
    #[should_panic(expected = "power-of-two")]
    fn non_power_of_two_rejected() {
        require_power_of_two(12);
    }

    #[test]
    fn candidates_are_deterministic_and_distinct() {
        let a = round_candidates(42, CollId(1), 7, 32, 5);
        let b = round_candidates(42, CollId(1), 7, 32, 5);
        assert_eq!(a, b, "all ranks must agree");
        let mut dedup = a.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), 5, "candidates must be distinct");
        let c = round_candidates(42, CollId(1), 8, 32, 5);
        assert_ne!(a, c, "different rounds draw different candidates");
        let d = round_candidates(42, CollId(2), 7, 32, 5);
        assert_ne!(a, d, "different collectives draw different candidates");
    }

    mod proptests {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(128))]

            /// Determinism: the candidate list is a pure function of
            /// `(seed, coll, round, p, m)` — the consensus property every
            /// rank relies on (§4.2).
            #[test]
            fn candidates_deterministic(
                seed in any::<u64>(),
                coll in 0u32..16,
                round in 0u64..1000,
                p_exp in 0u32..7,
                m in 1usize..9,
            ) {
                let p = 1usize << p_exp;
                let a = round_candidates(seed, CollId(coll), round, p, m);
                let b = round_candidates(seed, CollId(coll), round, p, m);
                prop_assert_eq!(a, b);
            }

            /// Candidates are distinct, in-range, and exactly
            /// `min(m, p)` of them.
            #[test]
            fn candidates_distinct_and_bounded(
                seed in any::<u64>(),
                round in 0u64..1000,
                p_exp in 0u32..7,
                m in 1usize..130,
            ) {
                let p = 1usize << p_exp;
                let c = round_candidates(seed, CollId(1), round, p, m);
                prop_assert_eq!(c.len(), m.min(p));
                prop_assert!(c.iter().all(|&r| r < p));
                let mut dedup = c.clone();
                dedup.sort_unstable();
                dedup.dedup();
                prop_assert_eq!(dedup.len(), c.len());
            }

            /// Over many rounds, each rank appears as a candidate at a
            /// frequency close to m/p — the uniformity behind majority's
            /// E[NAP] = P/2 guarantee.
            #[test]
            fn candidates_roughly_uniform(
                seed in any::<u64>(),
                p_exp in 2u32..6,
                m in 1usize..4,
            ) {
                let p = 1usize << p_exp;
                let rounds = 3000u64;
                let mut counts = vec![0usize; p];
                for r in 0..rounds {
                    for c in round_candidates(seed, CollId(2), r, p, m) {
                        counts[c] += 1;
                    }
                }
                let frac = m.min(p) as f64 / p as f64;
                let expect = rounds as f64 * frac;
                // Binomial std; 6σ keeps the false-failure rate negligible
                // across the thousands of (case × rank) checks.
                let tol = 6.0 * (expect * (1.0 - frac)).sqrt().max(1.0);
                for (rank, &c) in counts.iter().enumerate() {
                    prop_assert!(
                        (c as f64 - expect).abs() < tol,
                        "rank {} selected {} times, expected {} ± {}", rank, c, expect, tol
                    );
                }
            }
        }
    }

    #[test]
    fn candidate_selection_is_uniform_enough() {
        // Over many rounds each rank should be the (single) designated
        // initiator about equally often — the statistical guarantee behind
        // majority's E[NAP] = P/2 (§4.2).
        let p = 16;
        let rounds = 8000;
        let mut counts = vec![0usize; p];
        for r in 0..rounds {
            let c = round_candidates(7, CollId(3), r, p, 1);
            counts[c[0]] += 1;
        }
        let expect = rounds as f64 / p as f64;
        for (rank, &c) in counts.iter().enumerate() {
            assert!(
                (c as f64) > 0.7 * expect && (c as f64) < 1.3 * expect,
                "rank {rank} selected {c} times, expected ≈{expect}"
            );
        }
    }
}
