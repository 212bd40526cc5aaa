//! `tcp_smoke`: cross-process collectives smoke test.
//!
//! Runs synchronous and partial allreduces across `P` ranks on the
//! selected transport (`--transport tcp` = one OS process per rank over
//! loopback; default in-process), verifies every result exactly, pushes
//! one multi-MiB gradient-sized buffer through the engine path, and
//! reports per-rank round rates. CI's `tcp-smoke` job runs this with
//! `--transport tcp` to prove the process-per-rank path end to end.
//!
//! ```sh
//! cargo run --release -p repro_bench --bin tcp_smoke -- --transport tcp --quick --seed 7
//! ```

use pcoll::{PartialOpts, QuorumPolicy, RankCtx};
use pcoll_comm::{DType, ReduceOp, TypedBuf, World, WorldConfig};
use repro_bench::report::{comment, row, Checks};
use repro_bench::HarnessArgs;
use std::time::Instant;

fn main() {
    let args = HarnessArgs::parse();
    const P: usize = 4;
    let rounds: u64 = if args.quick { 16 } else { 64 };
    let payload: usize = if args.quick { 1 << 10 } else { 1 << 14 };
    // One gradient-sized buffer (f32): 1 MiB quick, 4 MiB full.
    let big: usize = if args.quick { 1 << 18 } else { 1 << 20 };
    let cfg = WorldConfig::instant(P).with_seed(args.seed);
    let transport_name = args.transport.name();

    comment(&format!(
        "tcp_smoke: {P} ranks over {transport_name}, {rounds} rounds, \
         payload {payload} f64 elems, big buffer {big} f32 elems, seed {}",
        args.seed
    ));

    let out = World::launch_with(cfg, args.transport("tcp_smoke"), move |c| {
        let ctx = RankCtx::new(c);
        // SPMD construction order fixes the collective ids on all ranks.
        let mut ar = ctx.sync_allreduce(DType::F64, payload, ReduceOp::Sum, None);
        let mut big_ar = ctx.sync_allreduce(DType::F32, big, ReduceOp::Sum, None);
        let mut pr = ctx.partial_allreduce(
            DType::F64,
            1,
            ReduceOp::Sum,
            QuorumPolicy::Chain(P),
            PartialOpts::default(),
        );
        let me = ctx.rank();
        let mut ok = true;
        let start = Instant::now();
        for round in 0..rounds {
            let contribution = vec![me as f64 + round as f64; payload];
            let sum = ar.allreduce(&TypedBuf::from(contribution));
            let want: f64 = (0..P).map(|r| r as f64 + round as f64).sum();
            ok &= sum
                .data
                .as_f64()
                .expect("f64 result")
                .iter()
                .all(|&x| (x - want).abs() < 1e-9);

            // Chain(P) is deterministic full participation: exactly P
            // fresh units per round.
            let partial = pr.allreduce(&TypedBuf::from(vec![1.0f64]));
            ok &= (partial.data.as_f64().expect("f64 partial")[0] - P as f64).abs() < 1e-9;
        }
        let elapsed = start.elapsed().as_secs_f64();

        // Multi-MiB frame through the same engine path (chunked writes +
        // reassembly on TCP).
        let fill: Vec<f32> = (0..big).map(|i| ((me + 1) * (i % 13 + 1)) as f32).collect();
        let big_sum = big_ar.allreduce(&TypedBuf::from(fill));
        let got = big_sum.data.as_f32().expect("f32 result");
        ok &= (0..big).step_by((big / 64).max(1)).all(|i| {
            let want: f32 = (0..P).map(|r| ((r + 1) * (i % 13 + 1)) as f32).sum();
            (got[i] - want).abs() < 1e-3
        });

        ctx.barrier();
        ctx.finalize();
        (ok, rounds as f64 / elapsed.max(1e-9))
    });

    // `None` would mean this is a worker for another launch label — this
    // binary only has the one site, so just exit quietly if it happens.
    let Some(results) = out else { return };

    row(&["rank", "ok", "rounds_per_s"]);
    for (rank, (ok, rps)) in results.iter().enumerate() {
        row(&[rank.to_string(), ok.to_string(), format!("{rps:.1}")]);
    }
    let mut c = Checks::new(args.quick);
    c.check(
        "all ranks verified every collective result",
        results.iter().all(|(ok, _)| *ok),
        &format!("{transport_name}, {} ranks", results.len()),
    );
    std::process::exit(c.exit_code());
}
