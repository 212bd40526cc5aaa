//! Direct use of the partial-collective API (no training): solo,
//! majority, and quorum-chain allreduce under an artificial straggler,
//! with per-rank freshness counts.
//!
//! ```sh
//! cargo run --release --example partial_allreduce
//! ```

use eager_sgd_repro::prelude::*;
use std::time::{Duration, Instant};

fn demo(policy: QuorumPolicy, name: &str) {
    const P: usize = 8;
    const ROUNDS: u64 = 6;

    println!("--- {name} ---");
    let results = World::launch(WorldConfig::instant(P), move |c| {
        let ctx = RankCtx::new(c);
        let mut ar =
            ctx.partial_allreduce(DType::F32, 1, ReduceOp::Sum, policy, PartialOpts::default());
        let mut lines = Vec::new();
        for round in 0..ROUNDS {
            // Rank 7 is chronically slow.
            if ctx.rank() == 7 {
                std::thread::sleep(Duration::from_millis(40));
            }
            let t0 = Instant::now();
            let out = ar.allreduce(&TypedBuf::from(vec![1.0f32]));
            let ms = t0.elapsed().as_secs_f64() * 1e3;
            if ctx.rank() == 0 {
                lines.push(format!(
                    "  round {round}: sum of fresh+stale contributions = {:>4.1}, \
                     rank-0 latency {ms:>6.2} ms (result from round {})",
                    out.data.as_f32().unwrap()[0],
                    out.result_round,
                ));
            }
            ctx.barrier();
        }
        ctx.finalize();
        (lines, ar.counters().fresh)
    });

    for line in &results[0].0 {
        println!("{line}");
    }
    // How often was the slow rank's own gradient fresh?
    let slow_fresh = results[7].1;
    println!("  slow rank contributed fresh data in {slow_fresh}/{ROUNDS} rounds\n");
}

fn main() {
    println!(
        "partial allreduce across 8 ranks; every rank deposits 1.0 per round;\n\
         rank 7 sleeps 40 ms — watch who makes it into each round's sum:\n"
    );
    demo(QuorumPolicy::Solo, "solo (wait-free, quorum >= 1)");
    demo(
        QuorumPolicy::Majority,
        "majority (random initiator, E[active] = P/2)",
    );
    demo(
        QuorumPolicy::Chain(4),
        "chain-4 (all 4 random candidates must arrive, E[active] = 4P/5)",
    );
    demo(
        QuorumPolicy::Full,
        "full (synchronous endpoint of the spectrum)",
    );
    println!(
        "note: sums < 8 mean absent ranks contributed G_null; their deposits\n\
         ride into the next round as stale gradients (Fig. 7's protocol), so\n\
         across rounds nothing is lost."
    );
}
