//! Schedule operations and the schedule builder.
//!
//! A [`Schedule`] is the static description of one rank's part of one
//! collective round: a vector of [`Op`]s plus dependency edges. Builders in
//! the `pcoll` crate generate schedules SPMD-style — every rank constructs
//! the same structure parameterized by its own rank — so a send's `(peer,
//! sem)` pair on one rank always has a matching receive with the same `sem`
//! on the peer.

use pcoll_comm::{Rank, ReduceOp};

/// Index of an operation within its schedule.
pub type OpId = usize;

/// Index of a buffer slot in the instance's buffer arena.
pub type Slot = usize;

/// Slot 0 by convention holds this rank's *contribution* — whatever the
/// template snapshot provided at instance creation (fresh gradient, stale
/// gradient, or G_null). Reduction schedules accumulate into it.
pub const CONTRIB_SLOT: Slot = 0;

/// Dependency satisfaction logic (§4.1.1: operations "can be dependent on
/// zero, one, or more other operations (with *and* or *or* logic)").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DepMode {
    /// Every dependency must have fired.
    And,
    /// At least one dependency must have fired.
    Or,
}

/// The operation kinds of §4.1.1: point-to-point communications, simple
/// computations between two arrays, and NOPs — plus the internal-activation
/// gate that models "the process reaches the collective function call".
#[derive(Debug, Clone, PartialEq)]
pub enum OpKind {
    /// Send a copy of buffer `src` to `peer` under semantic tag `sem`.
    SendData { peer: Rank, sem: u32, src: Slot },
    /// Send a zero-payload control message (activation broadcast hop).
    SendCtl { peer: Rank, sem: u32 },
    /// Receive the message `(peer, sem)`. If `into` is `Some`, the payload
    /// moves into that slot; control receives use `None`.
    Recv {
        peer: Rank,
        sem: u32,
        into: Option<Slot>,
    },
    /// Elementwise `bufs[dst] = bufs[dst] ⊕ bufs[src]`.
    Combine { op: ReduceOp, src: Slot, dst: Slot },
    /// `bufs[dst] = zero-copy view of bufs[src][start .. start + len]` —
    /// the chunk extraction of a segmented schedule. A reduction into the
    /// viewed chunk materializes it with one fused `out = a ⊕ b` pass
    /// into a recycled buffer (never a whole-tensor copy-on-write), so
    /// extraction itself moves no bytes.
    SliceView {
        src: Slot,
        dst: Slot,
        start: usize,
        len: usize,
    },
    /// Write `bufs[src]` (`len` elements) into the tile
    /// `bufs[dst][dst_start .. dst_start + len]`, materializing `dst` as
    /// `dst_len` *uninitialized* (scratch-pool) elements first if the
    /// slot is empty — the segmented allgather's assembly step. The
    /// `CopyAt` tiles into one slot cover `0..dst_len` exactly once
    /// ([`Schedule::validate`]), and a null source (a dead peer's chunk)
    /// zero-fills its tile, so no element keeps what the recycled buffer
    /// held. A wire-borne source decodes straight into the tile.
    CopyAt {
        src: Slot,
        dst: Slot,
        dst_start: usize,
        len: usize,
        dst_len: usize,
    },
    /// `bufs[slot] = bufs[slot] · factor` (`TypedBuf::scale`) — the `1/P`
    /// of an averaging allreduce (Alg. 2 line 6), placed by the builder
    /// where the fewest elements carry the finished sum: a ring rank
    /// scales its own fully reduced chunk *before* the allgather
    /// broadcasts it. Copy-on-write like `Combine`; an empty slot (nothing
    /// survived to average) stays empty.
    Scale { slot: Slot, factor: f64 },
    /// Dependency junction; completes immediately when satisfied.
    Nop,
    /// Fires only once the application has internally activated this
    /// round (and deps, if any, are satisfied). The paper's "N0".
    InternalGate,
}

impl OpKind {
    /// Stable, allocation-free label for trace events and metrics keys.
    pub fn label(&self) -> &'static str {
        match self {
            OpKind::SendData { .. } => "SendData",
            OpKind::SendCtl { .. } => "SendCtl",
            OpKind::Recv { .. } => "Recv",
            OpKind::Combine { .. } => "Combine",
            OpKind::SliceView { .. } => "SliceView",
            OpKind::CopyAt { .. } => "CopyAt",
            OpKind::Scale { .. } => "Scale",
            OpKind::Nop => "Nop",
            OpKind::InternalGate => "InternalGate",
        }
    }

    /// The slot this op only reads and the slot it writes (`Combine`,
    /// `CopyAt` and `Scale` also read the one they write).
    fn slots(&self) -> (Option<Slot>, Option<Slot>) {
        match *self {
            OpKind::SendData { src, .. } => (Some(src), None),
            OpKind::Recv { into, .. } => (None, into),
            OpKind::Combine { src, dst, .. }
            | OpKind::SliceView { src, dst, .. }
            | OpKind::CopyAt { src, dst, .. } => (Some(src), Some(dst)),
            OpKind::Scale { slot, .. } => (None, Some(slot)),
            OpKind::SendCtl { .. } | OpKind::Nop | OpKind::InternalGate => (None, None),
        }
    }
}

/// When the engine captures a rank's contribution into slot 0 — a
/// property of the [`Schedule`], set by the builder arm that emits the
/// gating which makes it sound.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SnapshotTiming {
    /// At instance creation — internal *or* external. This is the partial
    /// collective semantic: a rank dragged in by a faster peer contributes
    /// whatever its send buffer holds at that moment (fresh, stale, or
    /// null — Fig. 7).
    #[default]
    Creation,
    /// At the first internal activation. This is the synchronous semantic:
    /// the contribution is exactly what the application deposited before
    /// entering the collective; a schedule using this gates its data
    /// sends on an [`OpKind::InternalGate`].
    Activation,
}

/// One vertex of the schedule DAG.
#[derive(Debug, Clone, PartialEq)]
pub struct Op {
    pub kind: OpKind,
    pub deps: Vec<OpId>,
    pub dep_mode: DepMode,
}

/// A finalized, immutable schedule for one rank and one round plan. The
/// engine shares it (`Arc`) between every round that plans alike and
/// keeps each round's mutable state beside it (§4.1.1's persistent
/// schedules).
#[derive(Debug, Clone, PartialEq)]
pub struct Schedule {
    pub ops: Vec<Op>,
    /// Reverse edges, precomputed: `dependents[i]` lists ops that depend
    /// on op `i`.
    pub dependents: Vec<Vec<OpId>>,
    /// The events each op waits for before it can fire: one per AND
    /// dependency, one for the first of its OR dependencies, one for a
    /// receive's message and one for an internal gate's activation. A
    /// round copies these and counts them down ([`crate::DagState`]).
    pub waits: Vec<u32>,
    /// Number of buffer slots the instance arena must hold.
    pub nslots: usize,
    /// The op whose firing marks the collective complete on this rank.
    pub completion: OpId,
    /// Slot whose contents are delivered as the result on completion
    /// (`None` only in schedules that deliver nothing, such as DAG tests).
    pub result_slot: Option<Slot>,
    /// When the engine snapshots this rank's contribution for the round.
    pub snapshot_at: SnapshotTiming,
    /// Receive ops keyed by the `(peer, sem)` of the message each one
    /// matches, sorted by key: the engine's routing table for arriving
    /// messages, computed once per schedule ([`Schedule::recv_op`]).
    pub recv_route: Vec<((Rank, u32), OpId)>,
}

impl Schedule {
    /// Sanity-check structural invariants; called by the builder and
    /// available to tests/property checks.
    ///
    /// Besides slot ranges, dependencies and acyclicity this checks the
    /// contract that lets the engine land an arriving payload in its
    /// receive's slot before the receive fires: that slot is filled by
    /// the receive alone (not the snapshot's slot 0, not a second op), and
    /// every other op that touches it waits on the receive as an AND
    /// dependency. It also checks that the `CopyAt` tiles into a slot
    /// cover its `0..dst_len` without overlap or gap, which is what lets
    /// the engine assemble into a dirty pooled buffer.
    pub fn validate(&self) -> Result<(), String> {
        let n = self.ops.len();
        if self.completion >= n {
            return Err(format!(
                "completion op {} out of range {n}",
                self.completion
            ));
        }
        let mut filled_by: Vec<Option<OpId>> = vec![None; self.nslots];
        for (i, op) in self.ops.iter().enumerate() {
            if let Some(d) = op.deps.iter().find(|&&d| d >= n) {
                return Err(format!("op {i} depends on out-of-range op {d}"));
            }
            let (src, dst) = op.kind.slots();
            if let Some(s) = src.into_iter().chain(dst).find(|&s| s >= self.nslots) {
                return Err(format!("op {i} uses bad slot {s}"));
            }
            if src.is_some() && src == dst {
                return Err(format!("op {i} combines a slot with itself"));
            }
            if let OpKind::Recv { into: Some(s), .. } = op.kind {
                if s == CONTRIB_SLOT {
                    return Err(format!("op {i} receives into the contribution slot"));
                }
                filled_by[s] = Some(i);
            }
        }
        for (i, op) in self.ops.iter().enumerate() {
            let (src, dst) = op.kind.slots();
            for s in src.into_iter().chain(dst) {
                let Some(recv) = filled_by[s].filter(|&r| r != i) else {
                    continue;
                };
                if dst == Some(s) {
                    return Err(format!(
                        "op {i} fills slot {s}, which op {recv} receives into"
                    ));
                }
                if op.dep_mode != DepMode::And || !op.deps.contains(&recv) {
                    return Err(format!(
                        "op {i} reads slot {s} without waiting on its receive, op {recv}"
                    ));
                }
            }
        }
        // Cycle check via Kahn's algorithm on dependency edges.
        let mut indeg: Vec<usize> = self.ops.iter().map(|o| o.deps.len()).collect();
        let mut queue: Vec<OpId> = indeg
            .iter()
            .enumerate()
            .filter(|(_, &d)| d == 0)
            .map(|(i, _)| i)
            .collect();
        let mut seen = 0;
        while let Some(i) = queue.pop() {
            seen += 1;
            for &j in &self.dependents[i] {
                indeg[j] -= 1;
                if indeg[j] == 0 {
                    queue.push(j);
                }
            }
        }
        if seen != n {
            return Err("dependency cycle detected".into());
        }
        if let Some(w) = self.recv_route.windows(2).find(|w| w[0].0 == w[1].0) {
            return Err(format!(
                "ops {} and {} receive the same message",
                w[0].1, w[1].1
            ));
        }
        let mut tiles: Vec<(Slot, usize, usize, usize)> = (self.ops.iter())
            .filter_map(|op| match op.kind {
                OpKind::CopyAt {
                    dst,
                    dst_start,
                    len,
                    dst_len,
                    ..
                } => Some((dst, dst_start, len, dst_len)),
                _ => None,
            })
            .collect();
        tiles.sort_unstable();
        for slot in tiles.chunk_by(|a, b| a.0 == b.0) {
            let (dst, dst_len) = (slot[0].0, slot[0].3);
            let mut end = 0;
            for &(_, start, len, n) in slot {
                if n != dst_len {
                    return Err(format!(
                        "CopyAt tiles into slot {dst} disagree on its length"
                    ));
                }
                if start != end {
                    let what = if start < end {
                        "overlap"
                    } else {
                        "leave a gap"
                    };
                    let at = start.min(end);
                    return Err(format!(
                        "CopyAt tiles into slot {dst} {what} at element {at}"
                    ));
                }
                end = start + len;
            }
            if end != dst_len {
                return Err(format!(
                    "CopyAt tiles into slot {dst} cover 0..{end}, not 0..{dst_len}"
                ));
            }
        }
        Ok(())
    }

    /// Rewrite every op's peer rank through `map` (`map[virtual] = real`).
    ///
    /// Post-eviction schedules are built SPMD over the *live* population —
    /// a compacted virtual world of `map.len()` ranks — and then lifted
    /// back onto the real rank numbering with this call, so every builder
    /// stays oblivious to holes in the rank space.
    pub fn remap_peers(&mut self, map: &[Rank]) {
        for op in &mut self.ops {
            match &mut op.kind {
                OpKind::SendData { peer, .. }
                | OpKind::SendCtl { peer, .. }
                | OpKind::Recv { peer, .. } => {
                    *peer = map[*peer];
                }
                _ => {}
            }
        }
        self.route_receives();
    }

    /// The receive op that a message from `peer` under `sem` satisfies.
    pub fn recv_op(&self, peer: Rank, sem: u32) -> Option<OpId> {
        let at = self
            .recv_route
            .binary_search_by_key(&(peer, sem), |&(key, _)| key);
        at.ok().map(|i| self.recv_route[i].1)
    }

    fn route_receives(&mut self) {
        self.recv_route.clear();
        for (i, op) in self.ops.iter().enumerate() {
            if let OpKind::Recv { peer, sem, .. } = op.kind {
                self.recv_route.push(((peer, sem), i));
            }
        }
        self.recv_route.sort_unstable();
    }
}

/// Convenience builder producing a validated [`Schedule`].
#[derive(Debug, Default)]
pub struct ScheduleBuilder {
    ops: Vec<Op>,
    nslots: usize,
    completion: Option<OpId>,
    result_slot: Option<Slot>,
    snapshot_at: SnapshotTiming,
}

impl ScheduleBuilder {
    pub fn new() -> Self {
        Self::default()
    }

    /// Reserve `n` buffer slots (slot 0 is the contribution by convention).
    pub fn slots(&mut self, n: usize) -> &mut Self {
        self.nslots = self.nslots.max(n);
        self
    }

    /// Add an op with AND-dependencies (the common case).
    pub fn op(&mut self, kind: OpKind, deps: Vec<OpId>) -> OpId {
        self.push(kind, deps, DepMode::And)
    }

    /// Add an op with OR-dependencies.
    pub fn op_or(&mut self, kind: OpKind, deps: Vec<OpId>) -> OpId {
        self.push(kind, deps, DepMode::Or)
    }

    fn push(&mut self, kind: OpKind, deps: Vec<OpId>, dep_mode: DepMode) -> OpId {
        let id = self.ops.len();
        self.ops.push(Op {
            kind,
            deps,
            dep_mode,
        });
        id
    }

    /// Mark the completion op.
    pub fn completion(&mut self, id: OpId) -> &mut Self {
        self.completion = Some(id);
        self
    }

    /// Mark the result slot.
    pub fn result_slot(&mut self, s: Slot) -> &mut Self {
        self.result_slot = Some(s);
        self
    }

    /// Snapshot the contribution at `timing` (default: creation).
    pub fn snapshot_at(&mut self, timing: SnapshotTiming) -> &mut Self {
        self.snapshot_at = timing;
        self
    }

    /// Finalize: compute reverse edges and wait counts, and validate.
    pub fn build(self) -> Schedule {
        let mut dependents = vec![Vec::new(); self.ops.len()];
        for (i, op) in self.ops.iter().enumerate() {
            for &d in &op.deps {
                dependents[d].push(i);
            }
        }
        let waits = self.ops.iter().map(|op| {
            let deps = match op.dep_mode {
                DepMode::And => op.deps.len(),
                DepMode::Or => usize::from(!op.deps.is_empty()),
            };
            let trigger = matches!(op.kind, OpKind::Recv { .. } | OpKind::InternalGate);
            (deps + usize::from(trigger)) as u32
        });
        let mut sched = Schedule {
            waits: waits.collect(),
            dependents,
            nslots: self.nslots,
            completion: self.completion.expect("schedule needs a completion op"),
            result_slot: self.result_slot,
            snapshot_at: self.snapshot_at,
            ops: self.ops,
            recv_route: Vec::new(),
        };
        sched.route_receives();
        if let Err(e) = sched.validate() {
            panic!("invalid schedule: {e}");
        }
        sched
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_produces_valid_schedule() {
        let mut b = ScheduleBuilder::new();
        b.slots(2);
        let gate = b.op(OpKind::InternalGate, vec![]);
        let send = b.op(
            OpKind::SendData {
                peer: 1,
                sem: 0,
                src: 0,
            },
            vec![gate],
        );
        let recv = b.op(
            OpKind::Recv {
                peer: 1,
                sem: 0,
                into: Some(1),
            },
            vec![],
        );
        let comb = b.op(
            OpKind::Combine {
                op: ReduceOp::Sum,
                src: 1,
                dst: 0,
            },
            vec![send, recv],
        );
        b.completion(comb).result_slot(0);
        let s = b.build();
        assert_eq!(s.ops.len(), 4);
        assert_eq!(s.dependents[gate], vec![send]);
        assert!(s.validate().is_ok());
    }

    #[test]
    #[should_panic(expected = "cycle")]
    fn cycle_is_rejected() {
        let mut b = ScheduleBuilder::new();
        b.slots(1);
        // Manually wire a 2-cycle: op0 <- op1, op1 <- op0.
        let a = b.op(OpKind::Nop, vec![1]);
        let c = b.op(OpKind::Nop, vec![a]);
        b.completion(c);
        let _ = b.build();
    }

    #[test]
    #[should_panic(expected = "bad slot")]
    fn bad_slot_is_rejected() {
        let mut b = ScheduleBuilder::new();
        b.slots(1);
        let s = b.op(
            OpKind::SendData {
                peer: 0,
                sem: 0,
                src: 5,
            },
            vec![],
        );
        b.completion(s);
        let _ = b.build();
    }

    #[test]
    #[should_panic(expected = "itself")]
    fn self_combine_is_rejected() {
        let mut b = ScheduleBuilder::new();
        b.slots(1);
        let c = b.op(
            OpKind::Combine {
                op: ReduceOp::Sum,
                src: 0,
                dst: 0,
            },
            vec![],
        );
        b.completion(c);
        let _ = b.build();
    }

    /// A receive into slot 1, then `kind` with the dependencies `deps`
    /// gives for that receive.
    fn touch_a_receive_slot(kind: OpKind, deps: fn(OpId) -> Vec<OpId>) -> Schedule {
        let mut b = ScheduleBuilder::new();
        b.slots(2);
        let recv = b.op(
            OpKind::Recv {
                peer: 1,
                sem: 0,
                into: Some(1),
            },
            vec![],
        );
        let touch = b.op(kind, deps(recv));
        b.completion(touch);
        b.build()
    }

    #[test]
    #[should_panic(expected = "fills slot 1, which op 0 receives into")]
    fn a_combine_into_a_receive_slot_is_rejected() {
        let sum = OpKind::Combine {
            op: ReduceOp::Sum,
            src: 0,
            dst: 1,
        };
        touch_a_receive_slot(sum, |recv| vec![recv]);
    }

    #[test]
    #[should_panic(expected = "reads slot 1 without waiting on its receive")]
    fn a_reader_that_does_not_wait_on_the_receive_is_rejected() {
        let send = OpKind::SendData {
            peer: 1,
            sem: 0,
            src: 1,
        };
        touch_a_receive_slot(send, |_| vec![]);
    }

    /// Two views of the contribution assembled into slot 3 of 10
    /// elements, as the tiles `(start, len)`.
    fn assemble(tiles: [(usize, usize); 2]) -> Schedule {
        let mut b = ScheduleBuilder::new();
        b.slots(4);
        let placed: Vec<OpId> = (tiles.iter().enumerate())
            .map(|(i, &(start, len))| {
                let view = OpKind::SliceView {
                    src: 0,
                    dst: 1 + i,
                    start,
                    len,
                };
                let view = b.op(view, vec![]);
                let place = OpKind::CopyAt {
                    src: 1 + i,
                    dst: 3,
                    dst_start: start,
                    len,
                    dst_len: 10,
                };
                b.op(place, vec![view])
            })
            .collect();
        let done = b.op(OpKind::Nop, placed);
        b.completion(done).result_slot(3);
        b.build()
    }

    #[test]
    fn copy_at_tiles_that_cover_their_slot_are_accepted() {
        assert!(assemble([(4, 6), (0, 4)]).validate().is_ok());
    }

    #[test]
    #[should_panic(expected = "CopyAt tiles into slot 3 overlap at element 4")]
    fn overlapping_copy_at_tiles_are_rejected() {
        assemble([(0, 5), (4, 6)]);
    }

    #[test]
    #[should_panic(expected = "CopyAt tiles into slot 3 leave a gap at element 4")]
    fn copy_at_tiles_that_leave_a_gap_are_rejected() {
        assemble([(0, 4), (6, 4)]);
    }

    #[test]
    fn recv_route_lists_receives() {
        let mut b = ScheduleBuilder::new();
        b.slots(1);
        let r0 = b.op(
            OpKind::Recv {
                peer: 2,
                sem: 7,
                into: None,
            },
            vec![],
        );
        let n = b.op(OpKind::Nop, vec![r0]);
        b.completion(n);
        let s = b.build();
        assert_eq!(s.recv_route, vec![((2, 7), r0)]);
        assert_eq!(s.recv_op(2, 7), Some(r0));
        assert_eq!(s.recv_op(2, 6), None);
    }
}
