//! The §8 extension: "construct a spectrum between solo, majority, and
//! full collectives". Sweeps the quorum policy on one skewed workload and
//! prints the freshness/latency trade-off — the knob a practitioner would
//! actually tune.
//!
//! ```sh
//! cargo run --release --example quorum_spectrum
//! ```

use eager_sgd_repro::prelude::*;
use std::time::{Duration, Instant};

fn measure(policy: QuorumPolicy, label: &str) {
    const P: usize = 8;
    const ROUNDS: u64 = 40;
    let out = World::launch(WorldConfig::instant(P).with_seed(3), move |c| {
        let ctx = RankCtx::new(c);
        let mut ar = ctx.partial_allreduce(
            DType::F32,
            256,
            ReduceOp::Sum,
            policy,
            PartialOpts::default(),
        );
        let mut rng = TensorRng::new(10 + ctx.rank() as u64);
        let mut lat_ms = 0.0;
        for _ in 0..ROUNDS {
            ctx.host_barrier();
            // Random skew: 0–24 ms per rank per round.
            std::thread::sleep(Duration::from_millis(rng.index(25) as u64));
            let t0 = Instant::now();
            let _ = ar.allreduce(&TypedBuf::from(vec![1.0f32; 256]));
            lat_ms += t0.elapsed().as_secs_f64() * 1e3;
            ctx.barrier();
        }
        ctx.finalize();
        let fresh = ar.counters().fresh;
        (lat_ms / ROUNDS as f64, fresh as f64 / ROUNDS as f64)
    });
    let mean_lat = out.iter().map(|(l, _)| l).sum::<f64>() / out.len() as f64;
    let mean_fresh = out.iter().map(|(_, f)| f).sum::<f64>() / out.len() as f64;
    println!(
        "  {label:<14} expected fresh {:>5.2}  measured fresh {mean_fresh:>5.2}  \
         mean latency {mean_lat:>6.2} ms",
        policy.expected_active(8) / 8.0,
    );
}

fn main() {
    println!(
        "quorum spectrum on 8 ranks, random 0-24 ms skew per rank per round:\n\
         (fresh = fraction of rounds a rank's own gradient made it in)\n"
    );
    measure(QuorumPolicy::Solo, "solo");
    measure(QuorumPolicy::FirstOf(4), "first-of-4");
    measure(QuorumPolicy::Majority, "majority");
    measure(QuorumPolicy::Chain(2), "chain-2");
    measure(QuorumPolicy::Chain(4), "chain-4");
    measure(QuorumPolicy::Full, "full");
    println!(
        "\nlatency buys freshness: solo returns almost immediately but mostly\n\
         carries one rank's data; each step toward full waits longer and\n\
         includes more — pick the point your accuracy budget needs (§8)."
    );
}
