//! The trace-event schema: what the flight recorder records.
//!
//! Events are deliberately *plain data* — integer collective ids, round
//! numbers, ranks, byte counts — so the schema has no dependency on the
//! transport crates above this one. Call-sites in `pcoll_comm`,
//! `pcoll_sched`, `pcoll`, `pcoll_tune`, and `eager_sgd` map their own
//! types (wire tags, policies, op kinds) into these fields.
//!
//! Two shapes of event share one type:
//!
//! - **instants** ([`EventKind::dur_ns`] is `None`): a point on the
//!   timeline — a message handed to the transport, an activation, a tuner
//!   decision;
//! - **spans** (`dur_ns` is `Some`): an interval that *ended* at the
//!   event's timestamp and lasted `dur_ns`. Spans are recorded once, at
//!   completion, so a ring overwrite can never orphan a "begin" half —
//!   the price is that an in-progress interval is invisible until it ends.
//!
//! Every event round-trips through the serde shim (see the tests), which
//! is what the trace-file determinism guarantees build on.

use serde::Serialize;

/// One recorded event: when (nanoseconds on the recorder's clock), who
/// (the recording rank), what ([`EventKind`]).
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Nanoseconds since the recorder clock's epoch. For a span this is
    /// the *end* of the interval.
    pub ts_ns: u64,
    /// The rank that recorded the event.
    pub rank: u32,
    /// What happened.
    pub kind: EventKind,
}

/// The typed event vocabulary. See the module docs for the span/instant
/// split; [`EventKind::name`] gives the stable label exporters use.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub enum EventKind {
    /// A data message was handed to the transport (recorded on the
    /// sender; pairs with [`EventKind::MsgRecv`] via a flow arrow).
    MsgSend {
        /// Collective id the message belongs to.
        coll: u64,
        /// Round number within the collective.
        round: u64,
        /// Wire semantic discriminant (protocol phase) of the message.
        sem: u32,
        /// Destination rank.
        dst: u32,
        /// Payload bytes.
        bytes: u64,
    },
    /// A data message surfaced from the wire on the receiver.
    MsgRecv {
        /// Collective id the message belongs to.
        coll: u64,
        /// Round number within the collective.
        round: u64,
        /// Wire semantic discriminant (protocol phase) of the message.
        sem: u32,
        /// Source rank.
        src: u32,
        /// Payload bytes.
        bytes: u64,
    },
    /// The engine executed one op of a collective's program (span). For
    /// the segmented-ring algorithm each op is one per-segment step, so
    /// these spans are the per-segment timeline.
    OpExec {
        /// Collective id the op belongs to.
        coll: u64,
        /// Round number within the collective.
        round: u64,
        /// Op kind label (`"SendData"`, `"Combine"`, …).
        op: &'static str,
        /// How long the op ran.
        dur_ns: u64,
    },
    /// A round instance was opened on this rank (first local or remote
    /// touch of the round).
    RoundOpen {
        /// Collective id.
        coll: u64,
        /// Round number.
        round: u64,
    },
    /// The local application deposited its contribution for a round.
    RoundDeposit {
        /// Collective id.
        coll: u64,
        /// Round number.
        round: u64,
    },
    /// A round's program was activated on this rank. `external` marks a
    /// forced join: activation arrived over the wire before the local
    /// deposit (the paper's §4.1 mechanism).
    RoundActivate {
        /// Collective id.
        coll: u64,
        /// Round number.
        round: u64,
        /// Whether activation was remote (forced join).
        external: bool,
    },
    /// A round completed on this rank (span from activation to the last
    /// op retiring).
    RoundComplete {
        /// Collective id.
        coll: u64,
        /// Round number.
        round: u64,
        /// Whether this rank was dragged in by a forced join.
        external: bool,
        /// Activation-to-completion latency.
        dur_ns: u64,
    },
    /// A bounded send queue was full and the sender blocked (span
    /// covering the blocked interval — the backpressure signal).
    QueueStall {
        /// Queue depth observed when the stall began.
        depth: u64,
        /// How long the sender was blocked.
        dur_ns: u64,
    },
    /// The simulator landed a message in its destination's mailbox
    /// after the modeled latency (no wall-clock transport emits this).
    NetRelease {
        /// Destination rank.
        dst: u32,
        /// Modeled delay the message spent on the virtual wire.
        delay_ns: u64,
    },
    /// The adaptive tuner evaluated its reward and (re)chose a policy.
    TunerDecision {
        /// Trainer step the decision was made at.
        step: u64,
        /// Human-readable policy label (`Debug` of the quorum policy).
        policy: String,
    },
    /// A policy switch was applied to the collective's timeline.
    PolicySwitch {
        /// First round governed by the new policy.
        from_round: u64,
        /// Human-readable label of the new policy.
        policy: String,
    },
    /// One trainer step (forward + backward + allreduce + apply) ended.
    StepSpan {
        /// Step index.
        step: u64,
        /// Step duration.
        dur_ns: u64,
    },
    /// A peer was declared down on hard evidence (connection reset,
    /// read EOF, failed dial, scripted kill) — the membership layer's
    /// local verdict, recorded before any eviction consensus runs.
    PeerDown {
        /// The rank that stopped responding.
        peer: u32,
    },
    /// Survivors agreed (SPMD-fenced) to evict a rank: every round ≥
    /// `from_round` is built over the surviving population.
    Eviction {
        /// The evicted rank.
        peer: u32,
        /// First round governed by the shrunken live set.
        from_round: u64,
    },
    /// The admission fence readmitted a previously evicted rank: this
    /// rank's engine stops synthesizing null contributions for it —
    /// the [`EventKind::PeerDown`] verdict in reverse, and only ever
    /// emitted by the SPMD-fenced admission protocol.
    PeerUp {
        /// The readmitted rank.
        peer: u32,
    },
}

impl EventKind {
    /// Stable label for exporters and metrics keys.
    pub fn name(&self) -> &'static str {
        match self {
            EventKind::MsgSend { .. } => "msg_send",
            EventKind::MsgRecv { .. } => "msg_recv",
            EventKind::OpExec { .. } => "op_exec",
            EventKind::RoundOpen { .. } => "round_open",
            EventKind::RoundDeposit { .. } => "round_deposit",
            EventKind::RoundActivate { .. } => "round_activate",
            EventKind::RoundComplete { .. } => "round_complete",
            EventKind::QueueStall { .. } => "queue_stall",
            EventKind::NetRelease { .. } => "net_release",
            EventKind::TunerDecision { .. } => "tuner_decision",
            EventKind::PolicySwitch { .. } => "policy_switch",
            EventKind::StepSpan { .. } => "step",
            EventKind::PeerDown { .. } => "peer_down",
            EventKind::Eviction { .. } => "eviction",
            EventKind::PeerUp { .. } => "peer_up",
        }
    }

    /// `Some(duration)` when the event is a span (see module docs).
    pub fn dur_ns(&self) -> Option<u64> {
        match self {
            EventKind::OpExec { dur_ns, .. }
            | EventKind::RoundComplete { dur_ns, .. }
            | EventKind::QueueStall { dur_ns, .. }
            | EventKind::StepSpan { dur_ns, .. } => Some(*dur_ns),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One of every variant — kept in sync by the match in
    /// [`EventKind::name`] (adding a variant without extending this list
    /// fails the exhaustiveness check there first).
    pub(crate) fn one_of_each() -> Vec<EventKind> {
        vec![
            EventKind::MsgSend {
                coll: 1,
                round: 7,
                sem: 2,
                dst: 3,
                bytes: 4096,
            },
            EventKind::MsgRecv {
                coll: 1,
                round: 7,
                sem: 2,
                src: 0,
                bytes: 4096,
            },
            EventKind::OpExec {
                coll: 1,
                round: 7,
                op: "Combine",
                dur_ns: 1500,
            },
            EventKind::RoundOpen { coll: 1, round: 7 },
            EventKind::RoundDeposit { coll: 1, round: 7 },
            EventKind::RoundActivate {
                coll: 1,
                round: 7,
                external: true,
            },
            EventKind::RoundComplete {
                coll: 1,
                round: 7,
                external: false,
                dur_ns: 250_000,
            },
            EventKind::QueueStall {
                depth: 64,
                dur_ns: 9_000,
            },
            EventKind::NetRelease {
                dst: 2,
                delay_ns: 35_000_000,
            },
            EventKind::TunerDecision {
                step: 40,
                policy: "Majority".to_string(),
            },
            EventKind::PolicySwitch {
                from_round: 41,
                policy: "Full".to_string(),
            },
            EventKind::StepSpan {
                step: 40,
                dur_ns: 2_000_000,
            },
            EventKind::PeerDown { peer: 3 },
            EventKind::Eviction {
                peer: 3,
                from_round: 42,
            },
            EventKind::PeerUp { peer: 3 },
        ]
    }

    #[test]
    fn span_detection_matches_the_schema() {
        for kind in one_of_each() {
            let is_span = kind.dur_ns().is_some();
            let expect = matches!(
                kind.name(),
                "op_exec" | "round_complete" | "queue_stall" | "step"
            );
            assert_eq!(is_span, expect, "{}", kind.name());
        }
    }

    #[test]
    fn names_are_unique() {
        let kinds = one_of_each();
        let mut names: Vec<&str> = kinds.iter().map(|k| k.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), kinds.len());
    }
}
