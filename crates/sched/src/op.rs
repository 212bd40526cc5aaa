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
    /// `bufs[dst] = bufs[src].clone()`.
    Copy { src: Slot, dst: Slot },
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
    /// Write the whole of `bufs[src]` into `bufs[dst][dst_start ..]`,
    /// materializing `dst` as `dst_len` *uninitialized* (scratch-pool)
    /// elements first if the slot is empty — the segmented allgather's
    /// assembly step. Schedules using an empty-slot destination must
    /// cover every element of `dst` with `CopyAt` writes before the
    /// slot is observed. A wire-borne source decodes straight into the
    /// destination range.
    CopyAt {
        src: Slot,
        dst: Slot,
        dst_start: usize,
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
            OpKind::Copy { .. } => "Copy",
            OpKind::SliceView { .. } => "SliceView",
            OpKind::CopyAt { .. } => "CopyAt",
            OpKind::Scale { .. } => "Scale",
            OpKind::Nop => "Nop",
            OpKind::InternalGate => "InternalGate",
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
#[derive(Debug, Clone)]
pub struct Op {
    pub kind: OpKind,
    pub deps: Vec<OpId>,
    pub dep_mode: DepMode,
}

/// A finalized, immutable schedule for one rank and one round.
#[derive(Debug, Clone)]
pub struct Schedule {
    pub ops: Vec<Op>,
    /// Reverse edges, precomputed: `dependents[i]` lists ops that depend
    /// on op `i`.
    pub dependents: Vec<Vec<OpId>>,
    /// Number of buffer slots the instance arena must hold.
    pub nslots: usize,
    /// The op whose firing marks the collective complete on this rank.
    pub completion: OpId,
    /// Slot whose contents are delivered as the result on completion
    /// (`None` only in schedules that deliver nothing, such as DAG tests).
    pub result_slot: Option<Slot>,
    /// When the engine snapshots this rank's contribution for the round.
    pub snapshot_at: SnapshotTiming,
}

impl Schedule {
    /// Sanity-check structural invariants; called by the builder and
    /// available to tests/property checks.
    pub fn validate(&self) -> Result<(), String> {
        let n = self.ops.len();
        if self.completion >= n {
            return Err(format!(
                "completion op {} out of range {n}",
                self.completion
            ));
        }
        for (i, op) in self.ops.iter().enumerate() {
            for &d in &op.deps {
                if d >= n {
                    return Err(format!("op {i} depends on out-of-range op {d}"));
                }
            }
            let slot_ok = |s: Slot| s < self.nslots;
            match &op.kind {
                OpKind::SendData { src, .. } if !slot_ok(*src) => {
                    return Err(format!("op {i} sends from bad slot {src}"));
                }
                OpKind::Recv { into: Some(s), .. } if !slot_ok(*s) => {
                    return Err(format!("op {i} receives into bad slot {s}"));
                }
                OpKind::Scale { slot, .. } if !slot_ok(*slot) => {
                    return Err(format!("op {i} scales bad slot {slot}"));
                }
                OpKind::Combine { src, dst, .. } | OpKind::Copy { src, dst } => {
                    if !slot_ok(*src) || !slot_ok(*dst) {
                        return Err(format!("op {i} uses bad slots {src}/{dst}"));
                    }
                    if src == dst {
                        return Err(format!("op {i} combines a slot with itself"));
                    }
                }
                OpKind::SliceView { src, dst, .. } | OpKind::CopyAt { src, dst, .. } => {
                    if !slot_ok(*src) || !slot_ok(*dst) {
                        return Err(format!("op {i} uses bad slots {src}/{dst}"));
                    }
                    if src == dst {
                        return Err(format!("op {i} slices a slot onto itself"));
                    }
                }
                _ => {}
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
    }

    /// Receive operations indexed by their matching key, used by the engine
    /// to route arriving messages.
    pub fn recv_index(&self) -> impl Iterator<Item = ((Rank, u32), OpId)> + '_ {
        self.ops
            .iter()
            .enumerate()
            .filter_map(|(i, op)| match op.kind {
                OpKind::Recv { peer, sem, .. } => Some(((peer, sem), i)),
                _ => None,
            })
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

    /// Finalize: compute reverse edges and validate.
    pub fn build(self) -> Schedule {
        let mut dependents = vec![Vec::new(); self.ops.len()];
        for (i, op) in self.ops.iter().enumerate() {
            for &d in &op.deps {
                dependents[d].push(i);
            }
        }
        let sched = Schedule {
            dependents,
            nslots: self.nslots,
            completion: self.completion.expect("schedule needs a completion op"),
            result_slot: self.result_slot,
            snapshot_at: self.snapshot_at,
            ops: self.ops,
        };
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

    #[test]
    fn recv_index_lists_receives() {
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
        let idx: Vec<_> = s.recv_index().collect();
        assert_eq!(idx, vec![((2, 7), r0)]);
    }
}
