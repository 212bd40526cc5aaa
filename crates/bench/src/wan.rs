//! The four-region WAN scenario of the simulation harnesses: `sim_scale`
//! runs it for determinism, `trace_dump` with the flight recorder on.

use pcoll::{Hiccup, Pacing, QuorumPolicy, SimSpec, StepSetup};
use pcoll_comm::{NetworkModel, Planet, SimOpts, WorldConfig};
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
    }
}
