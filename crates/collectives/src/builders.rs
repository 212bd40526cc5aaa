//! Schedule builders for all collectives.
//!
//! Every builder is SPMD: each rank constructs its own view of the same
//! global communication structure, and the `(peer, sem)` pair of every send
//! matches exactly one receive on the peer (checked by the cross-rank
//! property test at the bottom of this file).
//!
//! ## Semantic tag namespaces
//!
//! | range     | meaning                                   |
//! |-----------|-------------------------------------------|
//! | `0x100+k` | activation broadcast hop at tree step `k` |
//! | `0x200+k` | recursive-doubling data exchange, level `k` |
//! | `0x300+k` | quorum chain token to candidate `k`       |
//! | `0x400+k` | dissemination barrier, round `k`          |
//! | `0x500`   | binomial broadcast payload                |
//! | `0x600+k` | binomial reduce payload from child at level `k` |
//!
//! ## The activation phase (§4.1.1)
//!
//! The activation broadcast is "a modified version of the recursive
//! doubling communication scheme ... equivalent to the union of P binomial
//! trees rooted at the different nodes". Concretely, with `L = log2(P)`
//! steps, in the tree rooted at initiator `i` a rank `r` *receives* the
//! activation at step `h = highest_bit(r XOR i)` from `r XOR 2^h`, and
//! *forwards* it at every step `j > h` to `r XOR 2^j`. Because `h` depends
//! only on `r XOR i`, posting one receive per step (`R_act[k]` from
//! `r XOR 2^k`) and one send per step with OR-dependencies on the
//! lower-step receives covers **all** P possible initiators with `O(log P)`
//! consumable operations — precisely the paper's Fig. 6 schedule.
//!
//! ## The averaging step (Alg. 2 line 6)
//!
//! An allreduce built with `scale = Some(f)` multiplies its result by `f`
//! inside the schedule, with one `OpKind::Scale` where the finished sum
//! sits in the fewest elements: the segmented ring scales each rank's own
//! fully reduced chunk between reduce-scatter and allgather (N/P elements
//! per rank, and what the allgather broadcasts is already scaled, so ranks
//! stay bit-identical), recursive doubling scales slot 0 after its last
//! combine, a one-rank world its deposit. `f == 1.0` (the `1/P` of one
//! rank) emits no step. The bits are `TypedBuf::scale`'s either way.

use crate::topology::{log2_exact, rd_partner, require_power_of_two};
use pcoll_comm::{Rank, ReduceOp};
use pcoll_sched::{OpId, OpKind, Schedule, ScheduleBuilder, Slot, SnapshotTiming, CONTRIB_SLOT};

/// Number of activation-broadcast steps for a world of `p` ranks:
/// `ceil(log2 p)` (equals `log2_exact(p)` when `p` is a power of two).
fn act_levels(p: usize) -> u32 {
    usize::BITS - (p - 1).leading_zeros()
}

/// The peer this rank *receives* the step-`k` activation hop from. For
/// power-of-two worlds this is the paper's XOR partner (the union of P
/// binomial trees, Fig. 6); for other world sizes the broadcast falls
/// back to mod-p dissemination (receive from `r − 2^k`), which covers
/// every rank from any initiator in the same `ceil(log2 p)` steps.
fn act_recv_peer(rank: Rank, p: usize, k: u32) -> Rank {
    if p.is_power_of_two() {
        rd_partner(rank, k)
    } else {
        (rank + p - (1usize << k)) % p
    }
}

/// The peer this rank *forwards* the step-`k` activation hop to (the XOR
/// partner is symmetric; the dissemination partner is `r + 2^k`).
fn act_send_peer(rank: Rank, p: usize, k: u32) -> Rank {
    if p.is_power_of_two() {
        rd_partner(rank, k)
    } else {
        (rank + (1usize << k)) % p
    }
}

/// Wire-tag namespace for activation messages (binomial tree / chain).
pub const SEM_ACT: u32 = 0x100;
/// Wire-tag namespace for recursive-doubling data exchanges, step `s`
/// uses `SEM_DATA + s`.
pub const SEM_DATA: u32 = 0x200;
/// Wire-tag namespace for the chain-m token hops.
pub const SEM_CHAIN: u32 = 0x300;
/// Wire-tag namespace for the dissemination barrier's rounds.
pub const SEM_BARRIER: u32 = 0x400;
/// Wire-tag namespace for binomial-tree broadcast hops.
pub const SEM_BCAST: u32 = 0x500;
/// Wire-tag namespace for binomial-tree reduce hops.
pub const SEM_REDUCE: u32 = 0x600;
/// Base of the segmented-ring data namespace: segment `g`'s ring step
/// `s` uses `SEM_SEG + g·2(P−1) + s` (reduce-scatter) and
/// `+ (P−1) + s` (allgather).
pub const SEM_SEG: u32 = 0x1000;

/// How the activation phase of one round of a partial collective starts —
/// a [`crate::QuorumPolicy`] resolved for that round by the collective's
/// round plan (candidates are ranks of the round's virtual world).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ActivationMode {
    /// Any of the listed candidate ranks may initiate; the first to arrive
    /// wins (solo = all ranks are candidates).
    Race(Vec<Rank>),
    /// The listed candidates must arrive in order; the last one initiates
    /// after receiving the chain token (majority = a single candidate).
    Chain(Vec<Rank>),
    /// No activation broadcast: every rank's data sends wait for its own
    /// internal activation (synchronous semantics / quorum = P).
    Full,
}

/// Build the activation phase of a partial collective into `b` and
/// return `n1`, the "this rank is activated" junction every data-phase
/// send gates on. Shared by the recursive-doubling and segmented-ring
/// data phases — the quorum semantics (race, chain, full) live entirely
/// here, so swapping the data-phase algorithm cannot change them — and so
/// does the snapshot timing: the arms that make a rank's own arrival gate
/// the round (`Full`, a `Chain` candidate) are the ones that defer its
/// snapshot to that arrival, so its contribution is the fresh deposit even
/// if a chain token created the instance first. Race candidates can be
/// dragged in externally before they arrive; their slot is filled at
/// creation.
/// Works for **any** `p` (see [`act_recv_peer`]): power-of-two worlds
/// keep the paper's XOR structure, others use mod-p dissemination — the
/// property that lets a post-eviction live set of arbitrary size keep
/// running partial collectives.
fn activation_phase(b: &mut ScheduleBuilder, rank: Rank, p: usize, mode: &ActivationMode) -> OpId {
    let levels = act_levels(p);
    // `n0` is the local initiation event (the paper's N0), present only on
    // ranks entitled to initiate under `mode`.
    let n0: Option<OpId> = match mode {
        ActivationMode::Race(candidates) => candidates
            .contains(&rank)
            .then(|| b.op(OpKind::InternalGate, vec![])),
        ActivationMode::Chain(candidates) => {
            let pos = candidates.iter().position(|&c| c == rank);
            match pos {
                None => None,
                Some(k) => {
                    b.snapshot_at(SnapshotTiming::Activation);
                    let gate = b.op(OpKind::InternalGate, vec![]);
                    // Receive the token from the previous candidate (k>0).
                    let ready = if k == 0 {
                        gate
                    } else {
                        let tok = b.op(
                            OpKind::Recv {
                                peer: candidates[k - 1],
                                sem: SEM_CHAIN + k as u32,
                                into: None,
                            },
                            vec![],
                        );
                        b.op(OpKind::Nop, vec![gate, tok])
                    };
                    if k + 1 < candidates.len() {
                        // Forward the token; we are not the initiator.
                        b.op(
                            OpKind::SendCtl {
                                peer: candidates[k + 1],
                                sem: SEM_CHAIN + (k + 1) as u32,
                            },
                            vec![ready],
                        );
                        None
                    } else {
                        // Last candidate in the chain initiates.
                        Some(ready)
                    }
                }
            }
        }
        ActivationMode::Full => {
            b.snapshot_at(SnapshotTiming::Activation);
            Some(b.op(OpKind::InternalGate, vec![]))
        }
    };

    // --- Activation broadcast (omitted entirely in Full mode). ---
    // n1 = "this rank is activated": OR of local initiation and every
    // possible activation receive.
    if matches!(mode, ActivationMode::Full) {
        n0.expect("full mode always has a gate")
    } else {
        let mut act_recvs = Vec::with_capacity(levels as usize);
        for k in 0..levels {
            act_recvs.push(b.op(
                OpKind::Recv {
                    peer: act_recv_peer(rank, p, k),
                    sem: SEM_ACT + k,
                    into: None,
                },
                vec![],
            ));
        }
        for j in 0..levels {
            // Send at step j if we initiated, or if we received the
            // activation at any step below j. A rank that can never
            // initiate has no step-0 send (its dep set would be empty).
            let mut deps: Vec<OpId> = n0.iter().copied().collect();
            deps.extend(act_recvs.iter().take(j as usize));
            if !deps.is_empty() {
                b.op_or(
                    OpKind::SendCtl {
                        peer: act_send_peer(rank, p, j),
                        sem: SEM_ACT + j,
                    },
                    deps,
                );
            }
        }
        let mut n1_deps: Vec<OpId> = n0.iter().copied().collect();
        n1_deps.extend(act_recvs.iter().copied());
        b.op_or(OpKind::Nop, n1_deps)
    }
}

/// The averaging step (module docs): scale `slot` once `after` has left
/// the finished reduction in it, and return the op later steps wait on —
/// `after` itself when the factor is absent or exactly 1.
fn scale_step(b: &mut ScheduleBuilder, scale: Option<f64>, slot: Slot, after: OpId) -> OpId {
    match scale {
        Some(factor) if factor != 1.0 => b.op(OpKind::Scale { slot, factor }, vec![after]),
        _ => after,
    }
}

/// The allreduce of a one-rank world, under any mode: the rank's own
/// arrival completes the round with its (scaled) deposit as the result.
fn single_rank_schedule(mut b: ScheduleBuilder, scale: Option<f64>) -> Schedule {
    b.snapshot_at(SnapshotTiming::Activation);
    let gate = b.op(OpKind::InternalGate, vec![]);
    let done = scale_step(&mut b, scale, CONTRIB_SLOT, gate);
    b.completion(done).result_slot(CONTRIB_SLOT);
    b.build()
}

/// Build the partial (or full) allreduce schedule for `rank` of `p` ranks.
///
/// The data phase is a recursive-doubling allreduce over slot 0
/// ([`CONTRIB_SLOT`]); level-`k` exchanges land in scratch slot `1 + k`.
/// The result is slot 0 after the final combine, multiplied by `scale`
/// there (every rank holds the same sum bit for bit, so every rank
/// scales it to the same bits); that last op is the completion.
pub fn allreduce_schedule(
    rank: Rank,
    p: usize,
    op: ReduceOp,
    scale: Option<f64>,
    mode: &ActivationMode,
) -> Schedule {
    require_power_of_two(p);
    let levels = log2_exact(p);
    let mut b = ScheduleBuilder::new();
    b.slots(1 + levels as usize);

    if p == 1 {
        // Degenerate world: the gate is the whole collective.
        return single_rank_schedule(b, scale);
    }

    let n1 = activation_phase(&mut b, rank, p, mode);

    // --- Data phase: recursive doubling over the contribution slot. ---
    let mut prev_combine: Option<OpId> = None;
    for k in 0..levels {
        let peer = rd_partner(rank, k);
        let scratch: Slot = 1 + k as usize;
        let recv = b.op(
            OpKind::Recv {
                peer,
                sem: SEM_DATA + k,
                into: Some(scratch),
            },
            vec![],
        );
        let send_dep = prev_combine.unwrap_or(n1);
        let send = b.op(
            OpKind::SendData {
                peer,
                sem: SEM_DATA + k,
                src: CONTRIB_SLOT,
            },
            vec![send_dep],
        );
        // Combine only after our level-k value went out, so the partner
        // never sees its own contribution reflected back.
        let combine = b.op(
            OpKind::Combine {
                op,
                src: scratch,
                dst: CONTRIB_SLOT,
            },
            vec![send, recv],
        );
        prev_combine = Some(combine);
    }
    let summed = prev_combine.expect("p > 1 has at least one level");
    let done = scale_step(&mut b, scale, CONTRIB_SLOT, summed);
    b.completion(done).result_slot(CONTRIB_SLOT);
    b.build()
}

/// Build the segmented reduce-scatter + allgather allreduce schedule for
/// `rank` of `p` ranks over `n_elems` elements — the bandwidth-optimal
/// large-message data phase (§7: "the optimal algorithm depends on ...
/// message size").
///
/// Unlike the recursive-doubling data phase, the ring works for **any**
/// world size — combined with the dissemination fallback in the
/// activation phase this is the schedule a post-eviction (non-power-of-
/// two) live set runs on.
///
/// The activation phase (and with it every quorum semantic: race, chain,
/// full, external drag-in, Fig. 7 snapshot timing) is byte-for-byte the
/// one [`allreduce_schedule`] uses. Only the data phase differs: the
/// tensor splits into `ceil(n / segment_elems)` segments, each segment
/// ring-chunks across the P ranks and runs P−1 reduce-scatter steps
/// (each hop's payload is `segment/P` elements, received chunks fold
/// into per-chunk accumulators — over TCP straight from the frame's wire
/// bytes), the `scale` of the one chunk this rank then owns fully reduced
/// (N/P elements per rank instead of N), and P−1 allgather steps
/// (received chunks are forwarded zero-copy and assembled into the result
/// in place). Segments are
/// dependency-independent, so segment `k+1`'s sends overlap segment
/// `k`'s reduces; `pipeline_depth` bounds how many segments may be in
/// flight, which keeps the instantaneous queue footprint under the
/// transport's bounded send queues instead of racing them.
///
/// Mass conservation is inherited: every rank's slot-0 snapshot (fresh,
/// stale, or null — Fig. 7) is chunk-decomposed and every chunk passes
/// through every rank exactly once, so a straggler-excluded round sums
/// exactly the P snapshots, like the recursive-doubling phase it
/// replaces. Each chunk's total is computed — and scaled — once and
/// broadcast, so results are bitwise identical across ranks.
#[allow(clippy::too_many_arguments)]
pub fn segmented_allreduce_schedule(
    rank: Rank,
    p: usize,
    op: ReduceOp,
    scale: Option<f64>,
    mode: &ActivationMode,
    n_elems: usize,
    segment_elems: usize,
    pipeline_depth: usize,
) -> Schedule {
    let mut b = ScheduleBuilder::new();

    if p == 1 {
        b.slots(1);
        return single_rank_schedule(b, scale);
    }

    let segment_elems = segment_elems.max(1);
    let segments = n_elems.div_ceil(segment_elems).max(1);
    let depth = pipeline_depth.max(1);
    // Slot layout: 0 = contribution (read-only — chunks are zero-copy
    // views of it); per segment, p chunk accumulators plus (p−1)
    // reduce-scatter and (p−1) allgather scratch slots for in-flight
    // receives (distinct per step — an early arrival for step s+1 must
    // not clobber step s's unconsumed payload); one final slot assembles
    // the result (kept separate from slot 0 so assembly never
    // copy-on-writes the still-viewed contribution).
    let per_seg_slots = 3 * p - 2;
    let result = 1 + segments * per_seg_slots;
    b.slots(result + 1);

    let n1 = activation_phase(&mut b, rank, p, mode);

    let next = (rank + 1) % p;
    let prev = (rank + p - 1) % p;
    let steps = (p - 1) as u32;
    let mut seg_dones: Vec<OpId> = Vec::with_capacity(segments);

    for seg in 0..segments {
        let seg_lo = (seg * segment_elems).min(n_elems);
        let seg_hi = ((seg + 1) * segment_elems).min(n_elems);
        let seg_n = seg_hi - seg_lo;
        // Chunk c covers chunk_range(c) within the segment; the last
        // chunk absorbs the tail (degenerate empty chunks when seg_n < P
        // are legal: zero-length payloads ride the same schedule).
        let base = seg_n / p;
        let chunk_lo = |c: usize| seg_lo + c * base;
        let chunk_len = |c: usize| {
            if c + 1 == p {
                seg_hi - chunk_lo(c)
            } else {
                base
            }
        };
        let slot_base = 1 + seg * per_seg_slots;
        let chunk_slot = |c: usize| slot_base + c;
        let rs_scratch = |s: usize| slot_base + p + s;
        let ag_scratch = |s: usize| slot_base + p + (p - 1) + s;
        let rs_sem = |s: usize| SEM_SEG + (seg as u32) * 2 * steps + s as u32;
        let ag_sem = |s: usize| SEM_SEG + (seg as u32) * 2 * steps + steps + s as u32;

        // Pipeline gate: segment `seg` may start sending only once
        // segment `seg − depth` fully completed on this rank.
        let seg_start = if seg >= depth {
            b.op(OpKind::Nop, vec![n1, seg_dones[seg - depth]])
        } else {
            n1
        };

        // Chunk extraction: zero-copy views of slot 0. The first ring
        // reduction into a viewed chunk materializes it with one fused
        // `out = a ⊕ b` pass into a recycled buffer, so extraction
        // itself moves no bytes and the contribution is never mutated
        // (no whole-tensor copy-on-write, whatever is still in flight).
        let slice_views: Vec<OpId> = (0..p)
            .map(|c| {
                b.op(
                    OpKind::SliceView {
                        src: CONTRIB_SLOT,
                        dst: chunk_slot(c),
                        start: chunk_lo(c),
                        len: chunk_len(c),
                    },
                    vec![seg_start],
                )
            })
            .collect();

        // Reduce-scatter ring: at step s send chunk (rank − s) and fold
        // the incoming chunk (rank − s − 1) into its accumulator. After
        // P−1 steps, chunk (rank + 1) is fully reduced on this rank.
        let mut prev_combine: Option<OpId> = None;
        for s in 0..p - 1 {
            let send_chunk = (rank + p - s) % p;
            let recv_chunk = (rank + p - s - 1) % p;
            let send_dep = prev_combine.unwrap_or(slice_views[send_chunk]);
            let send = b.op(
                OpKind::SendData {
                    peer: next,
                    sem: rs_sem(s),
                    src: chunk_slot(send_chunk),
                },
                vec![send_dep],
            );
            let recv = b.op(
                OpKind::Recv {
                    peer: prev,
                    sem: rs_sem(s),
                    into: Some(rs_scratch(s)),
                },
                vec![],
            );
            prev_combine = Some(b.op(
                OpKind::Combine {
                    op,
                    src: rs_scratch(s),
                    dst: chunk_slot(recv_chunk),
                },
                vec![recv, send, slice_views[recv_chunk]],
            ));
        }
        // The averaging step runs here, on the one chunk this rank owns
        // fully reduced: what the allgather circulates is already scaled.
        let own_chunk = (rank + 1) % p;
        let summed = prev_combine.expect("p > 1 has reduce-scatter steps");
        let reduced = scale_step(&mut b, scale, chunk_slot(own_chunk), summed);

        // Allgather ring: circulate the fully-reduced chunks, forwarding
        // each received payload zero-copy (a refcount bump in process, a
        // byte memcpy of the undecoded frame over TCP) and assembling
        // the result slot in place. Its buffer comes from the scratch
        // pool *uninitialized* — sound because the CopyAt writes across
        // all segments tile every element of the tensor.
        let mut seg_finals = vec![b.op(
            OpKind::CopyAt {
                src: chunk_slot(own_chunk),
                dst: result,
                dst_start: chunk_lo(own_chunk),
                dst_len: n_elems,
            },
            vec![reduced],
        )];
        let mut prev_recv: Option<OpId> = None;
        for s in 0..p - 1 {
            let recv_chunk = (rank + p - s) % p;
            let (send_src, send_dep) = match prev_recv {
                // Forward what arrived on the previous hop.
                Some(r) => (ag_scratch(s - 1), r),
                // First hop sends our own fully-reduced chunk.
                None => (chunk_slot(own_chunk), reduced),
            };
            let send = b.op(
                OpKind::SendData {
                    peer: next,
                    sem: ag_sem(s),
                    src: send_src,
                },
                vec![send_dep],
            );
            let recv = b.op(
                OpKind::Recv {
                    peer: prev,
                    sem: ag_sem(s),
                    into: Some(ag_scratch(s)),
                },
                vec![],
            );
            seg_finals.push(b.op(
                OpKind::CopyAt {
                    src: ag_scratch(s),
                    dst: result,
                    dst_start: chunk_lo(recv_chunk),
                    dst_len: n_elems,
                },
                // Assembly targets its own slot, so no ordering against
                // reads of the (immutable) contribution is needed.
                vec![recv, send],
            ));
            prev_recv = Some(recv);
        }
        seg_dones.push(b.op(OpKind::Nop, seg_finals));
    }

    let done = b.op(OpKind::Nop, seg_dones);
    b.completion(done).result_slot(result);
    b.build()
}

/// Dissemination barrier for any `p` (not just powers of two):
/// `ceil(log2 p)` rounds; in round `k` send to `(r + 2^k) mod p` and wait
/// for `(r - 2^k) mod p`. Purely synchronous (gated on internal
/// activation); carries no data.
pub fn barrier_schedule(rank: Rank, p: usize) -> Schedule {
    let mut b = ScheduleBuilder::new();
    b.slots(0).snapshot_at(SnapshotTiming::Activation);
    let gate = b.op(OpKind::InternalGate, vec![]);
    if p == 1 {
        b.completion(gate);
        return b.build();
    }
    let rounds = usize::BITS - (p - 1).leading_zeros();
    let mut prev = gate;
    for k in 0..rounds {
        let dist = 1usize << k;
        let to = (rank + dist) % p;
        let from = (rank + p - dist % p) % p;
        let send = b.op(
            OpKind::SendCtl {
                peer: to,
                sem: SEM_BARRIER + k,
            },
            vec![prev],
        );
        let recv = b.op(
            OpKind::Recv {
                peer: from,
                sem: SEM_BARRIER + k,
                into: None,
            },
            vec![],
        );
        prev = b.op(OpKind::Nop, vec![send, recv]);
    }
    b.completion(prev);
    b.build()
}

/// Binomial-tree broadcast from `root` (any `p`). The root's send cascade
/// is gated on its internal activation; non-root ranks forward upon
/// receipt, so only the root's arrival matters — which is the broadcast
/// contract. The result slot holds the payload on every rank.
pub fn bcast_schedule(rank: Rank, p: usize, root: Rank) -> Schedule {
    let mut b = ScheduleBuilder::new();
    b.slots(1);
    let rel = (rank + p - root) % p;
    let recv_level = if rel == 0 {
        None
    } else {
        Some(crate::topology::highest_bit(rel))
    };
    let trigger: OpId = match recv_level {
        None => {
            b.snapshot_at(SnapshotTiming::Activation);
            b.op(OpKind::InternalGate, vec![])
        }
        Some(h) => {
            let parent_rel = rel - (1usize << h);
            let parent = (parent_rel + root) % p;
            b.op(
                OpKind::Recv {
                    peer: parent,
                    sem: SEM_BCAST,
                    into: Some(CONTRIB_SLOT),
                },
                vec![],
            )
        }
    };
    // Forward to children: rel + 2^j for every level j above our receive
    // level (all levels for the root), bounded by the world size.
    let levels = usize::BITS - p.leading_zeros(); // enough steps to cover p
    let from = recv_level.map_or(0, |h| h + 1);
    let mut last_ops = vec![trigger];
    for j in (from..levels).rev() {
        let child_rel = rel + (1usize << j);
        if child_rel < p {
            let child = (child_rel + root) % p;
            last_ops.push(b.op(
                OpKind::SendData {
                    peer: child,
                    sem: SEM_BCAST,
                    src: CONTRIB_SLOT,
                },
                vec![trigger],
            ));
        }
    }
    let done = b.op(OpKind::Nop, last_ops);
    b.completion(done).result_slot(CONTRIB_SLOT);
    b.build()
}

/// Binomial-tree reduce to `root` (any `p`): children send their partial
/// sums up; each rank combines child payloads into its contribution before
/// forwarding. Synchronous (every rank's sends are gated on its own
/// activation). Only the root's result slot is meaningful.
pub fn reduce_schedule(rank: Rank, p: usize, root: Rank, op: ReduceOp) -> Schedule {
    let mut b = ScheduleBuilder::new();
    let rel = (rank + p - root) % p;
    b.snapshot_at(SnapshotTiming::Activation);
    let gate = b.op(OpKind::InternalGate, vec![]);
    if p == 1 {
        b.slots(1);
        b.completion(gate).result_slot(CONTRIB_SLOT);
        return b.build();
    }
    // The reduce tree mirrors the bcast tree: our children are
    // rel + 2^j < p for every level j above our own join level h
    // (all levels for the root); we send our partial sum to rel - 2^h.
    // A child at rel + 2^j has join level j, so it sends with sem
    // SEM_REDUCE + j and we post the matching receive.
    let recv_level = if rel == 0 {
        None
    } else {
        Some(crate::topology::highest_bit(rel))
    };
    let levels = usize::BITS - p.leading_zeros();
    let from = recv_level.map_or(0, |h| h + 1);
    let mut slot_count = 1;
    let mut prev = gate;
    for j in from..levels {
        let child_rel = rel + (1usize << j);
        if child_rel >= p {
            continue;
        }
        let child = (child_rel + root) % p;
        let scratch = slot_count;
        slot_count += 1;
        let recv = b.op(
            OpKind::Recv {
                peer: child,
                sem: SEM_REDUCE + j,
                into: Some(scratch),
            },
            vec![],
        );
        let comb = b.op(
            OpKind::Combine {
                op,
                src: scratch,
                dst: CONTRIB_SLOT,
            },
            // Chain combines so two children never write slot 0 at once,
            // and gate on activation so the contribution exists.
            vec![recv, prev],
        );
        prev = comb;
    }
    b.slots(slot_count);
    let ready = prev;
    let completion = match recv_level {
        None => ready, // root: all children folded in
        Some(h) => {
            let parent_rel = rel - (1usize << h);
            let parent = (parent_rel + root) % p;
            b.op(
                OpKind::SendData {
                    peer: parent,
                    sem: SEM_REDUCE + h,
                    src: CONTRIB_SLOT,
                },
                vec![ready],
            )
        }
    };
    b.completion(completion);
    if rel == 0 {
        b.result_slot(CONTRIB_SLOT);
    }
    b.build()
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use std::collections::HashMap;

    /// Every send must have exactly one matching receive on the peer, and
    /// vice versa — the SPMD pairing invariant that makes the engine's
    /// message routing sound.
    pub(crate) fn check_send_recv_pairing(schedules: &[Schedule]) {
        let p = schedules.len();
        // (from, to, sem) -> count
        let mut sends: HashMap<(Rank, Rank, u32), usize> = HashMap::new();
        let mut recvs: HashMap<(Rank, Rank, u32), usize> = HashMap::new();
        for (r, s) in schedules.iter().enumerate() {
            for op in &s.ops {
                match op.kind {
                    OpKind::SendData { peer, sem, .. } | OpKind::SendCtl { peer, sem } => {
                        assert!(peer < p);
                        *sends.entry((r, peer, sem)).or_default() += 1;
                    }
                    OpKind::Recv { peer, sem, .. } => {
                        assert!(peer < p);
                        *recvs.entry((peer, r, sem)).or_default() += 1;
                    }
                    _ => {}
                }
            }
        }
        for (key, n) in &sends {
            assert_eq!(*n, 1, "duplicate send {key:?}");
            assert!(
                recvs.contains_key(key),
                "send {key:?} has no matching receive"
            );
        }
        // Receives may outnumber sends (activation receives exist for all
        // possible initiators), but each must be unique.
        for (key, n) in &recvs {
            assert_eq!(*n, 1, "duplicate receive {key:?}");
        }
    }

    fn all_schedules(p: usize, mode: &dyn Fn(Rank) -> Schedule) -> Vec<Schedule> {
        (0..p).map(mode).collect()
    }

    #[test]
    fn solo_allreduce_pairing_all_sizes() {
        for p in [2usize, 4, 8, 16, 32] {
            let cands: Vec<Rank> = (0..p).collect();
            let scheds = all_schedules(p, &|r| {
                allreduce_schedule(
                    r,
                    p,
                    ReduceOp::Sum,
                    None,
                    &ActivationMode::Race(cands.clone()),
                )
            });
            check_send_recv_pairing(&scheds);
            for s in &scheds {
                s.validate().unwrap();
            }
        }
    }

    #[test]
    fn majority_allreduce_pairing() {
        for p in [2usize, 8, 16] {
            for init in [0, p / 2, p - 1] {
                let scheds = all_schedules(p, &|r| {
                    allreduce_schedule(
                        r,
                        p,
                        ReduceOp::Sum,
                        None,
                        &ActivationMode::Chain(vec![init]),
                    )
                });
                check_send_recv_pairing(&scheds);
            }
        }
    }

    #[test]
    fn chain_allreduce_pairing() {
        let p = 8;
        let chain = vec![3usize, 0, 6];
        let scheds = all_schedules(p, &|r| {
            allreduce_schedule(
                r,
                p,
                ReduceOp::Sum,
                None,
                &ActivationMode::Chain(chain.clone()),
            )
        });
        check_send_recv_pairing(&scheds);
    }

    #[test]
    fn full_allreduce_has_no_activation_ops() {
        let p = 8;
        let s = allreduce_schedule(2, p, ReduceOp::Sum, None, &ActivationMode::Full);
        for op in &s.ops {
            match op.kind {
                OpKind::SendCtl { sem, .. }
                | OpKind::Recv {
                    sem, into: None, ..
                } => {
                    assert!(
                        !(SEM_ACT..SEM_DATA).contains(&sem),
                        "full mode must not carry activation hops"
                    );
                }
                _ => {}
            }
        }
    }

    #[test]
    fn solo_initiator_sends_at_every_step() {
        // The initiator (any rank in Race-all) must have L activation
        // sends; pure receivers in Chain mode have L-1 (no step-0 send).
        let p = 16;
        let all: Vec<Rank> = (0..p).collect();
        let solo = allreduce_schedule(5, p, ReduceOp::Sum, None, &ActivationMode::Race(all));
        let n_act_sends = solo
            .ops
            .iter()
            .filter(|o| matches!(o.kind, OpKind::SendCtl { sem, .. } if (SEM_ACT..SEM_ACT+0x100).contains(&sem)))
            .count();
        assert_eq!(n_act_sends, 4, "log2(16) activation sends");

        let maj = allreduce_schedule(5, p, ReduceOp::Sum, None, &ActivationMode::Chain(vec![0]));
        let n_act_sends = maj
            .ops
            .iter()
            .filter(|o| matches!(o.kind, OpKind::SendCtl { sem, .. } if (SEM_ACT..SEM_ACT+0x100).contains(&sem)))
            .count();
        assert_eq!(n_act_sends, 3, "non-initiator has no step-0 send");
    }

    #[test]
    fn schedule_size_is_logarithmic() {
        // O(log P) ops per rank — the paper's scalability claim for the
        // activation phase.
        // Activation: L recvs + L sends + N1; data: 3L; plus the gate.
        let all64: Vec<Rank> = (0..64).collect();
        let s64 = allreduce_schedule(0, 64, ReduceOp::Sum, None, &ActivationMode::Race(all64));
        assert!(
            s64.ops.len() <= 5 * 6 + 4,
            "64-rank schedule should stay O(log P), got {}",
            s64.ops.len()
        );
        let all8: Vec<Rank> = (0..8).collect();
        let s8 = allreduce_schedule(0, 8, ReduceOp::Sum, None, &ActivationMode::Race(all8));
        assert!(s8.ops.len() < s64.ops.len());
    }

    #[test]
    fn segmented_allreduce_pairing_all_shapes() {
        // Every (send, sem) pairs with exactly one receive, across world
        // sizes, tensor lengths (including n < P degenerate chunks and
        // n = 0), segment sizes, and activation modes.
        for p in [2usize, 4, 8] {
            for n in [0usize, 3, 64, 130] {
                for mode in [
                    ActivationMode::Race((0..p).collect()),
                    ActivationMode::Chain(vec![p - 1]),
                    ActivationMode::Full,
                ] {
                    let scheds = all_schedules(p, &|r| {
                        segmented_allreduce_schedule(r, p, ReduceOp::Sum, None, &mode, n, 32, 2)
                    });
                    check_send_recv_pairing(&scheds);
                    for s in &scheds {
                        s.validate().unwrap();
                    }
                }
            }
        }
    }

    #[test]
    fn segmented_allreduce_pairing_non_power_of_two() {
        // Post-eviction live sets have arbitrary sizes: the dissemination
        // activation + ring data phase must pair for any P, under every
        // activation mode (race, chain, full).
        for p in [3usize, 5, 6, 7, 12] {
            for mode in [
                ActivationMode::Race((0..p).collect()),
                ActivationMode::Chain(vec![p - 1, 0]),
                ActivationMode::Full,
            ] {
                let scheds = all_schedules(p, &|r| {
                    segmented_allreduce_schedule(r, p, ReduceOp::Sum, None, &mode, 40, 16, 2)
                });
                check_send_recv_pairing(&scheds);
                for s in &scheds {
                    s.validate().unwrap();
                }
            }
        }
    }

    #[test]
    fn dissemination_activation_covers_all_ranks_from_any_initiator() {
        // Simulate the activation flood on the op graph: from any single
        // initiator, following "send at step j fires if initiated or
        // received below j", every rank must end up activated.
        for p in [3usize, 5, 6, 11] {
            let levels = act_levels(p);
            for init in 0..p {
                let mut informed = vec![false; p];
                informed[init] = true;
                for k in 0..levels {
                    let was: Vec<bool> = informed.clone();
                    for r in 0..p {
                        if was[r] {
                            informed[act_send_peer(r, p, k)] = true;
                        }
                    }
                }
                assert!(
                    informed.iter().all(|i| *i),
                    "p={p} init={init}: activation flood left ranks dark"
                );
            }
        }
    }

    #[test]
    fn segmented_schedule_size_scales_with_segments_not_elements() {
        // Ops grow with the segment count (pipelining structure), not
        // with the element count — the schedule stays cheap to build for
        // multi-MiB tensors.
        let all: Vec<Rank> = (0..8).collect();
        let mode = ActivationMode::Race(all);
        let small = segmented_allreduce_schedule(0, 8, ReduceOp::Sum, None, &mode, 1 << 10, 256, 4);
        let large =
            segmented_allreduce_schedule(0, 8, ReduceOp::Sum, None, &mode, 1 << 20, 1 << 18, 4);
        assert_eq!(
            small.ops.len(),
            large.ops.len(),
            "same segment count must give the same op count"
        );
    }

    #[test]
    fn segmented_pipeline_gates_bound_inflight_segments() {
        // With depth d, segment k's slice copies depend on segment k−d's
        // completion Nop — count the gating Nops.
        let mode = ActivationMode::Full;
        let sched = segmented_allreduce_schedule(0, 4, ReduceOp::Sum, None, &mode, 64, 8, 2);
        // 8 segments, depth 2 → segments 2..8 are gated.
        let gated = sched
            .ops
            .iter()
            .filter(|o| matches!(o.kind, OpKind::Nop) && o.deps.len() == 2)
            .count();
        assert!(gated >= 6, "expected pipeline gates, found {gated}");
    }

    #[test]
    fn the_average_is_one_scale_step_on_the_finished_reduction() {
        let mode = ActivationMode::Full;
        let scales = |s: &Schedule| -> Vec<(OpId, Slot)> {
            let slot = |(i, o): (OpId, &pcoll_sched::Op)| match o.kind {
                OpKind::Scale { slot, .. } => Some((i, slot)),
                _ => None,
            };
            s.ops.iter().enumerate().filter_map(slot).collect()
        };
        // No factor, or a factor of exactly 1 (1/P at P = 1): no step.
        for scale in [None, Some(1.0)] {
            for p in [1usize, 4] {
                let rd = allreduce_schedule(0, p, ReduceOp::Sum, scale, &mode);
                let seg =
                    segmented_allreduce_schedule(0, p, ReduceOp::Sum, scale, &mode, 64, 16, 2);
                assert_eq!((scales(&rd), scales(&seg)), (vec![], vec![]), "p={p}");
            }
        }
        // Recursive doubling and a one-rank world: slot 0, and the step is
        // the completion.
        for p in [1usize, 8] {
            let s = allreduce_schedule(3 % p, p, ReduceOp::Sum, Some(0.5), &mode);
            assert_eq!(scales(&s), [(s.completion, CONTRIB_SLOT)], "p={p}");
        }
        // The ring: once per segment, on the chunk this rank owns, after
        // the last reduce-scatter fold and before anything reads the chunk
        // (the first allgather send and the chunk's own assembly copy).
        let (rank, p) = (1usize, 4usize);
        let s = segmented_allreduce_schedule(rank, p, ReduceOp::Sum, Some(0.25), &mode, 64, 16, 2);
        let found = scales(&s);
        assert_eq!(found.len(), 4, "one per segment");
        for (seg, &(id, slot)) in found.iter().enumerate() {
            assert_eq!(slot, 1 + seg * (3 * p - 2) + (rank + 1) % p);
            let dep = &s.ops[s.ops[id].deps[0]].kind;
            assert!(matches!(dep, OpKind::Combine { dst, .. } if *dst == slot));
            let readers: Vec<&OpKind> = s.dependents[id].iter().map(|&d| &s.ops[d].kind).collect();
            assert!(matches!(
                readers[..],
                [OpKind::CopyAt { src: a, .. }, OpKind::SendData { src: b, .. }] if *a == slot && *b == slot
            ));
        }
    }

    #[test]
    fn barrier_pairing_any_p() {
        for p in [1usize, 2, 3, 5, 8, 12, 16] {
            let scheds = all_schedules(p, &|r| barrier_schedule(r, p));
            check_send_recv_pairing(&scheds);
        }
    }

    #[test]
    fn bcast_pairing_any_p_any_root() {
        for p in [1usize, 2, 3, 5, 8, 13] {
            for root in 0..p {
                let scheds = all_schedules(p, &|r| bcast_schedule(r, p, root));
                check_send_recv_pairing(&scheds);
                // Tree property: every non-root has exactly one payload recv.
                for (r, s) in scheds.iter().enumerate() {
                    let recvs = s
                        .ops
                        .iter()
                        .filter(|o| matches!(o.kind, OpKind::Recv { .. }))
                        .count();
                    assert_eq!(recvs, usize::from(r != root), "p={p} root={root} r={r}");
                }
            }
        }
    }

    #[test]
    fn reduce_pairing_any_p_any_root() {
        for p in [1usize, 2, 3, 5, 8, 13] {
            for root in 0..p {
                let scheds = all_schedules(p, &|r| reduce_schedule(r, p, root, ReduceOp::Sum));
                check_send_recv_pairing(&scheds);
                // Every non-root sends exactly one payload up.
                for (r, s) in scheds.iter().enumerate() {
                    let sends = s
                        .ops
                        .iter()
                        .filter(|o| matches!(o.kind, OpKind::SendData { .. }))
                        .count();
                    assert_eq!(sends, usize::from(r != root), "p={p} root={root} r={r}");
                }
            }
        }
    }

    mod proptests {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            /// SPMD pairing holds for random chain candidate sets.
            #[test]
            fn chain_pairing_random(
                p_exp in 1u32..5,
                seed in any::<u64>(),
                m in 1usize..6,
            ) {
                let p = 1usize << p_exp;
                let cands = crate::topology::round_candidates(
                    seed, pcoll_comm::CollId(1), 0, p, m);
                let scheds: Vec<Schedule> = (0..p)
                    .map(|r| allreduce_schedule(
                        r, p, ReduceOp::Sum, None, &ActivationMode::Chain(cands.clone())))
                    .collect();
                check_send_recv_pairing(&scheds);
            }

            /// Barrier pairing for arbitrary world sizes.
            #[test]
            fn barrier_pairing_random(p in 1usize..33) {
                let scheds: Vec<Schedule> =
                    (0..p).map(|r| barrier_schedule(r, p)).collect();
                check_send_recv_pairing(&scheds);
            }
        }
    }
}
