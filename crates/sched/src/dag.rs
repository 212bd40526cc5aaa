//! Pure dependency-firing state machine for one schedule instance.
//!
//! Everything fixed about a round is on its [`Schedule`], including
//! [`Schedule::waits`]: the events each op waits for — one per AND
//! dependency, one for the first of its OR dependencies, one for a
//! receive's message, one for an [`OpKind::InternalGate`]'s activation.
//! An instance copies those counts and only counts down; an op is ready
//! the moment its count reaches zero, which happens once. `DagState`
//! performs **no** I/O and owns **no** buffers — the engine feeds it
//! events, it pushes the ops they make ready onto the engine's queue, and
//! the engine executes their effects — which makes the consumable-op and
//! dependency semantics directly property-testable.
//!
//! The central invariant (the paper's "consumable operations"): every op is
//! made ready at most once, and only when
//! 1. its AND/OR dependencies are satisfied, and
//! 2. its kind-specific trigger holds (receives need their message,
//!    [`OpKind::InternalGate`] needs the application's activation).

use crate::op::{DepMode, OpId, OpKind, Schedule};

/// The receive's message has arrived.
const ARRIVED: u8 = 1;
/// One of the op's OR dependencies has fired.
const OR_MET: u8 = 2;
/// The op has fired.
const FIRED: u8 = 4;

/// Runtime firing state of one schedule instance.
#[derive(Debug)]
pub struct DagState {
    /// Events each op still waits for, counted down from
    /// [`Schedule::waits`].
    open: Vec<u32>,
    /// `ARRIVED`, `OR_MET` and `FIRED` bits of each op.
    flags: Vec<u8>,
    activated: bool,
}

impl DagState {
    /// Create the state and push the ops ready at instance creation (the
    /// ones that wait for nothing) onto `ready`, in op order.
    pub fn new(sched: &Schedule, ready: &mut Vec<OpId>) -> Self {
        let open = sched.waits.clone();
        ready.extend((0..open.len()).filter(|&id| open[id] == 0));
        DagState {
            flags: vec![0; open.len()],
            open,
            activated: false,
        }
    }

    /// One event op `id` waited for has happened; at the last it is ready.
    fn release(&mut self, id: OpId, ready: &mut Vec<OpId>) {
        debug_assert!(self.open[id] > 0, "op {id} released past zero");
        self.open[id] -= 1;
        if self.open[id] == 0 {
            ready.push(id);
        }
    }

    /// Has this op fired?
    pub fn is_fired(&self, id: OpId) -> bool {
        self.flags[id] & FIRED != 0
    }

    /// Record the application's internal activation and push the internal
    /// gates it makes ready, in op order. Idempotent.
    pub fn on_activate(&mut self, sched: &Schedule, ready: &mut Vec<OpId>) {
        if self.activated {
            return;
        }
        self.activated = true;
        for (id, op) in sched.ops.iter().enumerate() {
            if matches!(op.kind, OpKind::InternalGate) {
                self.release(id, ready);
            }
        }
    }

    /// Record arrival of the message for receive op `id`, pushing the
    /// receive if that makes it ready. Returns whether the message was
    /// accepted: a duplicate arrival for the same op returns `false` — the
    /// duplicate activation messages of multi-initiator solo collectives
    /// are absorbed here.
    pub fn on_message(&mut self, sched: &Schedule, id: OpId, ready: &mut Vec<OpId>) -> bool {
        debug_assert!(matches!(sched.ops[id].kind, OpKind::Recv { .. }));
        if self.flags[id] & ARRIVED != 0 {
            return false;
        }
        self.flags[id] |= ARRIVED;
        self.release(id, ready);
        true
    }

    /// Record that the engine executed op `id`'s effect, and push the
    /// dependents that makes ready, in [`Schedule::dependents`] order.
    ///
    /// Panics if the op already fired — the consumable-op invariant is a
    /// hard error to violate, not a recoverable condition.
    pub fn mark_fired(&mut self, sched: &Schedule, id: OpId, ready: &mut Vec<OpId>) {
        assert!(
            !self.is_fired(id),
            "op {id} fired twice (consumable invariant)"
        );
        self.flags[id] |= FIRED;
        for &dep in &sched.dependents[id] {
            if sched.ops[dep].dep_mode == DepMode::Or {
                if self.flags[dep] & OR_MET != 0 {
                    continue;
                }
                self.flags[dep] |= OR_MET;
            }
            self.release(dep, ready);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::ScheduleBuilder;

    /// A fresh state and the ops ready at creation.
    fn start(sched: &Schedule) -> (DagState, Vec<OpId>) {
        let mut ready = Vec::new();
        let st = DagState::new(sched, &mut ready);
        (st, ready)
    }

    /// Drive a DAG to quiescence, firing everything made ready, last
    /// pushed first (the engine's order). Returns the firing order.
    fn run_to_quiescence(sched: &Schedule, st: &mut DagState, mut queue: Vec<OpId>) -> Vec<OpId> {
        let mut order = Vec::new();
        while let Some(id) = queue.pop() {
            order.push(id);
            st.mark_fired(sched, id, &mut queue);
        }
        order
    }

    fn nop_chain() -> Schedule {
        let mut b = ScheduleBuilder::new();
        b.slots(1);
        let a = b.op(OpKind::Nop, vec![]);
        let c = b.op(OpKind::Nop, vec![a]);
        let d = b.op(OpKind::Nop, vec![c]);
        b.completion(d);
        b.build()
    }

    #[test]
    fn chain_fires_in_order() {
        let s = nop_chain();
        let (mut st, ready) = start(&s);
        let order = run_to_quiescence(&s, &mut st, ready);
        assert_eq!(order, vec![0, 1, 2]);
        assert!((0..3).all(|op| st.is_fired(op)));
    }

    #[test]
    fn internal_gate_waits_for_activation() {
        let mut b = ScheduleBuilder::new();
        b.slots(1);
        let g = b.op(OpKind::InternalGate, vec![]);
        let n = b.op(OpKind::Nop, vec![g]);
        b.completion(n);
        let s = b.build();
        let (mut st, ready) = start(&s);
        assert!(ready.is_empty(), "gate must not fire at creation");
        let mut ready = Vec::new();
        st.on_activate(&s, &mut ready);
        assert_eq!(ready, vec![g]);
        let order = run_to_quiescence(&s, &mut st, ready);
        assert_eq!(order, vec![g, n]);
    }

    #[test]
    fn activation_is_idempotent() {
        let mut b = ScheduleBuilder::new();
        b.slots(1);
        let g = b.op(OpKind::InternalGate, vec![]);
        b.completion(g);
        let s = b.build();
        let (mut st, _) = start(&s);
        let mut ready = Vec::new();
        st.on_activate(&s, &mut ready);
        assert_eq!(ready, vec![g]);
        st.on_activate(&s, &mut ready);
        assert_eq!(ready, vec![g], "a second activation readies nothing");
        st.mark_fired(&s, g, &mut ready);
        st.on_activate(&s, &mut ready);
        assert_eq!(ready, vec![g]);
    }

    #[test]
    fn recv_needs_both_message_and_deps() {
        let mut b = ScheduleBuilder::new();
        b.slots(2);
        let pre = b.op(OpKind::Nop, vec![]);
        let r = b.op(
            OpKind::Recv {
                peer: 1,
                sem: 0,
                into: Some(1),
            },
            vec![pre],
        );
        b.completion(r);
        let s = b.build();

        // Message first, dep second.
        let (mut st, ready) = start(&s);
        assert_eq!(ready, vec![pre]);
        let mut newly = Vec::new();
        assert!(st.on_message(&s, r, &mut newly), "the message is accepted");
        assert!(newly.is_empty(), "dep not yet satisfied");
        st.mark_fired(&s, pre, &mut newly);
        assert_eq!(newly, vec![r], "dep firing unlocks buffered arrival");

        // Dep first, message second.
        let (mut st, ready) = start(&s);
        assert_eq!(run_to_quiescence(&s, &mut st, ready), vec![pre]);
        let mut newly = Vec::new();
        assert!(st.on_message(&s, r, &mut newly));
        assert_eq!(newly, vec![r]);
    }

    #[test]
    fn duplicate_message_is_absorbed() {
        let mut b = ScheduleBuilder::new();
        b.slots(1);
        let r = b.op(
            OpKind::Recv {
                peer: 0,
                sem: 0,
                into: None,
            },
            vec![],
        );
        b.completion(r);
        let s = b.build();
        let (mut st, mut ready) = start(&s);
        assert!(st.on_message(&s, r, &mut ready));
        assert!(
            !st.on_message(&s, r, &mut ready),
            "duplicate must be absorbed"
        );
        st.mark_fired(&s, r, &mut ready);
        assert!(
            !st.on_message(&s, r, &mut ready),
            "post-fire message must be absorbed"
        );
        assert_eq!(ready, vec![r], "the receive is readied once");
    }

    #[test]
    fn or_fan_in_fires_once() {
        // Two sources, one OR sink: sink fireable after the first source,
        // not re-queued after the second.
        let mut b = ScheduleBuilder::new();
        b.slots(1);
        let s1 = b.op(OpKind::Nop, vec![]);
        let s2 = b.op(OpKind::Nop, vec![]);
        let sink = b.op_or(OpKind::Nop, vec![s1, s2]);
        b.completion(sink);
        let s = b.build();
        let (mut st, ready) = start(&s);
        assert_eq!(ready.len(), 2);
        let mut r1 = Vec::new();
        st.mark_fired(&s, s1, &mut r1);
        assert_eq!(r1, vec![sink]);
        let mut r2 = Vec::new();
        st.mark_fired(&s, s2, &mut r2);
        assert!(r2.is_empty(), "sink must not be handed out twice");
    }

    #[test]
    #[should_panic(expected = "consumable")]
    fn double_fire_panics() {
        let s = nop_chain();
        let (mut st, mut ready) = start(&s);
        st.mark_fired(&s, 0, &mut ready);
        st.mark_fired(&s, 0, &mut ready);
    }

    mod proptests {
        use super::*;
        use proptest::prelude::*;

        /// Random acyclic schedule of NOPs, receives (each matching its
        /// own message) and internal gates: each op may depend (AND or
        /// OR) on a subset of earlier ops, so receives and gates sit both
        /// behind dependencies and under OR sinks.
        fn arb_schedule() -> impl Strategy<Value = Schedule> {
            (2usize..40).prop_flat_map(|n| {
                let spec = proptest::collection::vec(
                    (
                        0u8..3,
                        proptest::collection::vec(0usize..n, 0..4),
                        any::<bool>(),
                    ),
                    n,
                );
                spec.prop_map(move |spec| {
                    let mut b = ScheduleBuilder::new();
                    b.slots(1);
                    for (i, (kind, ds, or)) in spec.iter().enumerate() {
                        let kind = match kind {
                            0 => OpKind::Nop,
                            1 => OpKind::Recv {
                                peer: 0,
                                sem: i as u32,
                                into: None,
                            },
                            _ => OpKind::InternalGate,
                        };
                        let valid: Vec<OpId> = ds.iter().copied().filter(|&d| d < i).collect();
                        if *or && !valid.is_empty() {
                            b.op_or(kind, valid);
                        } else {
                            b.op(kind, valid);
                        }
                    }
                    b.completion(0);
                    b.build()
                })
            })
        }

        /// Everything one run has seen: what arrived, whether the round
        /// was activated, which ops were made ready and which fired.
        struct Run<'s> {
            s: &'s Schedule,
            st: DagState,
            ready: Vec<OpId>,
            readied: Vec<bool>,
            arrived: Vec<bool>,
            activated: bool,
            fired: Vec<bool>,
            order: Vec<OpId>,
        }

        impl Run<'_> {
            /// Move what the state just pushed onto the ready list; no op
            /// may be made ready twice.
            fn admit(&mut self, fresh: Vec<OpId>) {
                for id in fresh {
                    assert!(!self.readied[id], "op {id} made ready twice");
                    self.readied[id] = true;
                    self.ready.push(id);
                }
            }

            fn fire(&mut self, at: usize) {
                let id = self.ready.swap_remove(at);
                let op = &self.s.ops[id];
                let fired = |d: &OpId| self.fired[*d];
                match op.dep_mode {
                    DepMode::And => assert!(op.deps.iter().all(fired), "op {id} before an AND dep"),
                    DepMode::Or => assert!(
                        op.deps.is_empty() || op.deps.iter().any(fired),
                        "op {id} before every OR dep"
                    ),
                }
                match op.kind {
                    OpKind::Recv { .. } => {
                        assert!(self.arrived[id], "recv {id} before its message")
                    }
                    OpKind::InternalGate => assert!(self.activated, "gate {id} before activation"),
                    _ => {}
                }
                self.fired[id] = true;
                self.order.push(id);
                let mut fresh = Vec::new();
                self.st.mark_fired(self.s, id, &mut fresh);
                self.admit(fresh);
            }

            fn deliver(&mut self, id: OpId) {
                let mut fresh = Vec::new();
                let accepted = self.st.on_message(self.s, id, &mut fresh);
                assert_eq!(
                    accepted, !self.arrived[id],
                    "duplicates, and only they, return false"
                );
                self.arrived[id] = true;
                self.admit(fresh);
            }

            fn activate(&mut self) {
                let mut fresh = Vec::new();
                self.st.on_activate(self.s, &mut fresh);
                self.activated = true;
                self.admit(fresh);
            }
        }

        proptest! {
            /// Liveness + consumability: on any acyclic DAG of NOPs,
            /// receives and gates, under any interleaving of firings,
            /// message arrivals (duplicates included) and activations,
            /// every op fires exactly once, never before its AND
            /// dependencies, one of its OR dependencies or its trigger.
            #[test]
            fn all_ops_fire_exactly_once(
                s in arb_schedule(),
                script in proptest::collection::vec((0u8..3, any::<usize>()), 0..120),
            ) {
                let n = s.ops.len();
                let recvs: Vec<OpId> = s.recv_route.iter().map(|&(_, op)| op).collect();
                let mut ready = Vec::new();
                let st = DagState::new(&s, &mut ready);
                let mut run = Run {
                    s: &s,
                    st,
                    ready: Vec::new(),
                    readied: vec![false; n],
                    arrived: vec![false; n],
                    activated: false,
                    fired: vec![false; n],
                    order: Vec::new(),
                };
                run.admit(ready);
                for &(step, pick) in &script {
                    match step {
                        0 if !run.ready.is_empty() => run.fire(pick % run.ready.len()),
                        1 if !recvs.is_empty() => run.deliver(recvs[pick % recvs.len()]),
                        2 => run.activate(),
                        _ => {}
                    }
                }
                // Then every trigger, a second activation and a duplicate
                // of every message included, and fire to quiescence.
                run.activate();
                for &r in &recvs {
                    run.deliver(r);
                }
                while !run.ready.is_empty() {
                    run.fire(run.ready.len() - 1);
                }
                prop_assert_eq!(run.order.len(), n);
                prop_assert!((0..n).all(|id| run.fired[id] && run.st.is_fired(id)));
            }
        }
    }
}
