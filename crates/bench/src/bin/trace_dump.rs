//! `trace_dump`: the flight recorder end to end. Runs a sim_scale-style
//! closed-loop experiment — P = 64 engines on the four-region WAN with
//! static region skew plus rotating 300 ms stragglers, a hill-climb
//! controller migrating the quorum policy away from `Full` — with the
//! recorder at verbose level, then:
//!
//! 1. drains every rank's ring into one merged virtual-time stream,
//! 2. exports it as Chrome/Perfetto trace-event JSON
//!    (`BENCH_trace_dump.perfetto.json` — load at `ui.perfetto.dev`),
//! 3. validates the file against the trace-event schema,
//! 4. shape-checks that the trace actually shows the phenomena the
//!    observability layer exists for: forced joins dragging stragglers,
//!    wire-serialization queue stalls, and at least one tuner policy
//!    switch,
//! 5. prints every rank's `CommStats`/`EngineStats` counter snapshot of
//!    the same run.
//!
//! Because the recorder timestamps on the simulator's virtual clock, the
//! emitted trace file is a pure function of `(spec, seed)` — two runs
//! with the same seed write byte-identical JSON (checked here with an
//! FNV digest against a second run in full mode).

use pcoll::SimHarness;
use pcoll_obs::{fnv1a, validate_perfetto, EventKind, TraceEvent, LEVEL_VERBOSE};
use repro_bench::report::{comment, row, Checks};
use repro_bench::wan::{switches, tune_spec};
use repro_bench::HarnessArgs;

/// Per-rank ring capacity: large enough that a full run never overwrites
/// (the dump should be the whole story, not the tail of it).
const RING_CAP: usize = 1 << 16;

/// One traced run: returns (trace events, perfetto JSON, switch count).
fn traced_run(
    p: usize,
    rounds: u64,
    seed: u64,
    print_counters: bool,
) -> (Vec<TraceEvent>, String, usize) {
    // `sim_scale`'s tune part, with the recorder switched on.
    let mut spec = tune_spec(p, rounds, seed);
    spec.world = spec.world.with_trace(LEVEL_VERBOSE, RING_CAP);
    let mut h = SimHarness::new(spec);
    let report = h.execute();
    let events = h.trace_events();

    if print_counters {
        // Engine counters in `EngineStats::snapshot` order: internal and
        // external activations, completions, dropped gc / late / dup /
        // unmatched, pre-registered.
        for (rank, (comm, engine)) in h.counter_snapshots().iter().enumerate() {
            comment(&format!("rank {rank} {comm:?} engine {engine:?}"));
        }
    }
    let json = pcoll_obs::perfetto_trace(&events);
    (events, json, switches(&report.decisions[0]).len())
}

fn main() {
    let args = HarnessArgs::parse();
    let p = 64;
    let rounds = if args.quick { 48 } else { 120 };
    comment(&format!(
        "trace_dump: P={p}, 4-region WAN + rotating stragglers, recorder at verbose \
         (ring {RING_CAP}/rank), hill-climb from Full (quick={}, seed={})",
        args.quick, args.seed
    ));

    let (events, json, switches) = traced_run(p, rounds, args.seed, true);
    let path = "BENCH_trace_dump.perfetto.json";
    std::fs::write(path, &json).expect("write trace file");
    comment(&format!("wrote {path} ({} bytes)", json.len()));

    let mut kind_counts = std::collections::BTreeMap::<&str, u64>::new();
    for ev in &events {
        *kind_counts.entry(ev.kind.name()).or_insert(0) += 1;
    }
    row(&["event", "count"]);
    for (name, n) in &kind_counts {
        row(&[name.to_string(), n.to_string()]);
    }

    let mut c = Checks::new(args.quick);
    let summary = validate_perfetto(&json).unwrap_or_else(|e| {
        c.check("perfetto-schema-valid", false, &e);
        std::process::exit(c.exit_code());
    });
    c.check(
        "perfetto-schema-valid",
        summary.ranks >= p,
        &format!(
            "{} entries ({} spans, {} instants) across {} tracks",
            summary.entries, summary.spans, summary.instants, summary.ranks
        ),
    );

    // The phenomena the acceptance run must make visible.
    let forced_joins = events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::RoundActivate { external: true, .. }))
        .count() as u64;
    let queue_stalls = events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::QueueStall { .. }))
        .count() as u64;
    c.check(
        "straggler-forced-joins-visible",
        forced_joins > 0,
        &format!("{forced_joins} external activations"),
    );
    c.check(
        "queue-stalls-visible",
        queue_stalls > 0,
        &format!("{queue_stalls} wire-serialization stalls"),
    );
    c.check(
        "tuner-switches-visible",
        switches >= 1,
        &format!("{switches} policy switches"),
    );

    let digest = fnv1a(json.as_bytes());
    if !args.quick {
        // Same seed, second harness: the trace file must be byte-identical.
        let (_, json2, _) = traced_run(p, rounds, args.seed, false);
        c.check(
            "same-seed-trace-byte-identical",
            json == json2,
            &format!("digests {digest:016x} vs {:016x}", fnv1a(json2.as_bytes())),
        );
    }
    comment(&format!("trace digest {digest:016x}"));
    std::process::exit(c.exit_code());
}
