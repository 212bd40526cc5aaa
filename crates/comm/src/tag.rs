//! Message addressing: ranks, collective ids, wire tags.

use crate::payload::Payload;

/// A process index in `0..P`, identical in spirit to an MPI rank.
pub type Rank = usize;

/// Identifier of a registered (persistent) collective. Each logical
/// collective call-site — e.g. "the gradient allreduce" or "the model-sync
/// allreduce" — gets one `CollId`; successive executions are distinguished
/// by the round number.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CollId(pub u32);

/// The full matching key carried by every message.
///
/// `sem` is a semantic tag namespace owned by the schedule builders (e.g.
/// "activation hop at tree level k" vs "data exchange at level k"). A
/// receive operation matches a message when `(src, coll, round, sem)` all
/// agree.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct WireTag {
    /// The persistent collective this message belongs to.
    pub coll: CollId,
    /// The collective's round (execution) number.
    pub round: u64,
    /// Semantic tag within the schedule (builder-owned namespace).
    pub sem: u32,
}

impl WireTag {
    /// Assemble a tag from its parts.
    pub fn new(coll: CollId, round: u64, sem: u32) -> Self {
        WireTag { coll, round, sem }
    }
}

/// A delivered message. `payload == None` is a zero-byte control message
/// (the activation broadcast of a solo/majority collective is one).
///
/// The payload is a shared [`Payload`]: cloning the message for a
/// multi-destination send (or holding it in a writer queue while the
/// sender's slot still owns it) bumps a reference count instead of
/// copying element data.
#[derive(Debug)]
pub struct Message {
    /// Sending rank.
    pub src: Rank,
    /// Matching key (collective, round, semantic tag).
    pub tag: WireTag,
    /// Data, if any; shared zero-copy across fan-out destinations.
    pub payload: Option<Payload>,
}

impl Message {
    /// Bytes on the wire the simulator's network model charges this
    /// message for.
    /// Control messages cost a small fixed header.
    pub fn wire_bytes(&self) -> usize {
        const HEADER: usize = 32;
        HEADER + self.payload.as_ref().map_or(0, |p| p.byte_len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_bytes_counts_header_and_payload() {
        let m = Message {
            src: 0,
            tag: WireTag::new(CollId(1), 0, 0),
            payload: None,
        };
        assert_eq!(m.wire_bytes(), 32);
        let m = Message {
            src: 0,
            tag: WireTag::new(CollId(1), 0, 0),
            payload: Some(crate::TypedBuf::zeros(crate::DType::F32, 16).into()),
        };
        assert_eq!(m.wire_bytes(), 32 + 64);
    }
}
