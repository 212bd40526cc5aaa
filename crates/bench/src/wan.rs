//! The four-region WAN scenario of the simulation harnesses: `sim_scale`
//! runs it for determinism and closed-loop control, `trace_dump` runs the
//! same closed loop with the flight recorder on.

use pcoll::{Hiccup, Pacing, QuorumDecision, QuorumPolicy, SimSpec, StepSetup};
use pcoll_comm::{NetworkModel, Planet, SimOpts, WorldConfig};
use pcoll_tune::{adaptive_setup, AdaptiveTunerCfg, ControllerKind};
use std::time::Duration;

/// A WAN-topology, jittery-network, self-paced spec: the maximally
/// stateful configuration (region matrix + alpha-beta jitter + closed
/// loop), i.e. the hardest one to keep bit-reproducible. `skew_ms` is
/// the static region-level compute skew (each region a step slower than
/// the one before); `hiccup` adds the rotating dynamic imbalance of
/// Figs. 10–11 on top.
pub fn wan_spec(
    p: usize,
    rounds: u64,
    seed: u64,
    policy: QuorumPolicy,
    skew_ms: u64,
    hiccup: Hiccup,
) -> SimSpec {
    let planet = Planet::wan();
    let compute: Vec<Duration> = (0..p)
        .map(|r| {
            let region = planet.rank_region(r, p).0 as u32;
            Duration::from_millis(5)
                + Duration::from_millis(skew_ms) * region
                + Duration::from_micros(37) * (r as u32)
        })
        .collect();
    SimSpec {
        world: WorldConfig::instant(p).with_seed(seed),
        opts: SimOpts {
            network: NetworkModel::cloud(),
            planet,
            ..SimOpts::default()
        },
        policy,
        rounds,
        len: 8,
        pacing: Pacing::SelfPaced(StepSetup::fixed(compute, hiccup)),
        partial: Default::default(),
        tuner: None,
    }
}

/// The closed-loop scenario's static skew per region (ms).
pub const TUNE_SKEW_MS: u64 = 20;
/// The closed-loop scenario's rotating stragglers (the paper's
/// dynamic-imbalance regime): a different 8 ranks stall 300 ms each
/// round, so synchronous quorums pay every stall on the critical path
/// while asynchronous ones overlap them.
pub const TUNE_STRAGGLERS: Hiccup = Hiccup {
    k: 8,
    extra: Duration::from_millis(300),
};

/// The closed loop's decision period, in rounds.
pub const TUNE_PERIOD: u64 = 8;

/// The policy changes in one rank's `decisions` of the closed-loop
/// scenario, which starts at `Full`, as `(from_round, to)`.
pub fn switches(decisions: &[QuorumDecision]) -> Vec<(u64, QuorumPolicy)> {
    let before = std::iter::once(QuorumPolicy::Full).chain(decisions.iter().map(|d| d.policy));
    (decisions.iter().zip(before))
        .filter(|(d, before)| d.policy != *before)
        .map(|(d, _)| (d.from_round, d.policy))
        .collect()
}

/// The closed-loop scenario: [`wan_spec`] under `Full` with
/// [`TUNE_SKEW_MS`] and [`TUNE_STRAGGLERS`], tuned by the trainer's
/// `AdaptiveTuner` — a hill climb over the quorum spectrum from `Full`,
/// maximising `fresh^0.5 × rounds/s` every [`TUNE_PERIOD`] rounds.
pub fn tune_spec(p: usize, rounds: u64, seed: u64) -> SimSpec {
    let (policy, skew) = (QuorumPolicy::Full, TUNE_SKEW_MS);
    let mut spec = wan_spec(p, rounds, seed, policy, skew, TUNE_STRAGGLERS);
    spec.tuner = Some(adaptive_setup(AdaptiveTunerCfg {
        period: TUNE_PERIOD,
        beta: 0.5,
        kind: ControllerKind::HillClimb,
        initial: Some(policy),
    }));
    spec
}
