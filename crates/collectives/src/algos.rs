//! The hand-written ring allreduce (bandwidth-optimal, Baidu/Horovod
//! style) implemented directly over the point-to-point [`Matcher`] (no
//! schedule engine). It is the engine's ceiling in the benchmarks and its
//! oracle in the tests, and synchronous by construction (each step blocks
//! on its receive).
//!
//! Data-path discipline: hops never `to_vec()` per step. Working chunks
//! are shared [`Payload`]s — a ring hop sends a reference-count bump, a
//! received chunk is forwarded without copying, and receive-side
//! reductions fold straight into the accumulator
//! ([`Payload::reduce_assign`] into a chunk payload,
//! [`Payload::store_into`] into a range of the caller's slice) — over TCP
//! directly from the frame's undecoded wire bytes. Those are the same
//! `pcoll_comm` kernel the engine's `Combine` and `CopyAt` run, which is
//! what makes the ring an oracle for the schedules and not for the
//! arithmetic.

use pcoll_comm::{CollId, CommHandle, Matcher, Payload, ReduceOp, TypedBuf, WireTag};

/// Context for the direct (engine-less) ring allreduce.
pub struct DirectCollectives<'a> {
    /// Send side of this rank's transport endpoint.
    pub handle: &'a CommHandle,
    /// Receive side: tag-matched delivery over the rank's inbox.
    pub matcher: &'a mut Matcher,
    /// Collective id carried on the wire (keep distinct from engine
    /// collectives if both are in flight — they must not share an inbox).
    pub coll: CollId,
    round: u64,
}

impl<'a> DirectCollectives<'a> {
    /// Bind the ring to a rank's endpoint under collective id `coll`.
    pub fn new(handle: &'a CommHandle, matcher: &'a mut Matcher, coll: CollId) -> Self {
        DirectCollectives {
            handle,
            matcher,
            coll,
            round: 0,
        }
    }

    fn tag(&self, sem: u32) -> WireTag {
        WireTag::new(self.coll, self.round, sem)
    }

    /// Ring allreduce on an f32 buffer: P−1 reduce-scatter steps plus
    /// P−1 allgather steps over contiguous chunks. Works for any P.
    ///
    /// The only payload-sized copies are the initial chunk split (which
    /// sums to one buffer) and the final writes back into `data`: every
    /// hop sends a shared clone, folds the incoming chunk straight into
    /// its accumulator (from the raw wire bytes on TCP), and forwards
    /// received allgather chunks without copying.
    pub fn ring_allreduce_f32(&mut self, data: &mut [f32], op: ReduceOp) {
        let p = self.handle.size();
        let me = self.handle.rank();
        self.round += 1;
        if p == 1 {
            return;
        }
        let n = data.len();
        // Chunk c covers chunk_range(c); the last chunk absorbs the tail.
        let base = n / p;
        let chunk_range = |c: usize| -> std::ops::Range<usize> {
            let start = c * base;
            let end = if c + 1 == p { n } else { (c + 1) * base };
            start..end
        };
        let next = (me + 1) % p;
        let prev = (me + p - 1) % p;

        // One owned payload per chunk: the ring's accumulators, reused
        // across all steps.
        let mut chunks: Vec<Payload> = (0..p)
            .map(|c| Payload::new(TypedBuf::from(data[chunk_range(c)].to_vec())))
            .collect();

        // Reduce-scatter: in step s we send chunk (me - s) and receive
        // chunk (me - s - 1), accumulating into it. The accumulator is
        // never the chunk just sent, so the fold stays in place.
        for s in 0..p - 1 {
            let send_chunk = (me + p - s) % p;
            let recv_chunk = (me + p - s - 1) % p;
            self.handle
                .send_payload(next, self.tag(s as u32), Some(chunks[send_chunk].clone()));
            let msg = self
                .matcher
                .recv(prev, self.tag(s as u32))
                .expect("ring reduce-scatter recv");
            let incoming = msg.payload.expect("data message");
            chunks[recv_chunk]
                .reduce_assign(&incoming, op)
                .expect("ring chunk shape");
        }

        // Allgather: circulate the fully-reduced chunks, forwarding each
        // received payload as-is.
        let own = (me + 1) % p;
        chunks[own]
            .store_into(&mut data[chunk_range(own)])
            .expect("own chunk shape");
        let mut carry = chunks[own].clone();
        for s in 0..p - 1 {
            let recv_chunk = (me + p - s) % p;
            let sem = 1000 + s as u32;
            self.handle
                .send_payload(next, self.tag(sem), Some(carry.clone()));
            let msg = self
                .matcher
                .recv(prev, self.tag(sem))
                .expect("ring allgather recv");
            let incoming = msg.payload.expect("data message");
            incoming
                .store_into(&mut data[chunk_range(recv_chunk)])
                .expect("ring allgather shape");
            carry = incoming;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcoll_comm::{World, WorldConfig};

    fn run_ring(p: usize, n: usize) -> Vec<Vec<f32>> {
        World::launch(WorldConfig::instant(p), move |c| {
            let me = c.rank();
            let (h, inbox) = c.split();
            let mut m = Matcher::new(inbox);
            let mut dc = DirectCollectives::new(&h, &mut m, CollId(9000));
            let mut data: Vec<f32> = (0..n).map(|i| (me * n + i) as f32).collect();
            dc.ring_allreduce_f32(&mut data, ReduceOp::Sum);
            data
        })
    }

    fn expected_sum(p: usize, n: usize) -> Vec<f32> {
        (0..n)
            .map(|i| (0..p).map(|r| (r * n + i) as f32).sum())
            .collect()
    }

    #[test]
    fn ring_allreduce_sums_correctly() {
        for (p, n) in [(2, 8), (3, 10), (4, 4), (5, 17), (8, 64)] {
            let out = run_ring(p, n);
            let want = expected_sum(p, n);
            for (r, v) in out.iter().enumerate() {
                assert_eq!(v, &want, "p={p} n={n} rank {r}");
            }
        }
    }

    #[test]
    fn ring_handles_len_smaller_than_p() {
        // Degenerate chunking: most chunks empty.
        let out = run_ring(8, 3);
        let want = expected_sum(8, 3);
        for v in out {
            assert_eq!(v, want);
        }
    }

    #[test]
    fn ring_max_reduction() {
        let p = 4;
        let out = World::launch(WorldConfig::instant(p), move |c| {
            let me = c.rank();
            let (h, inbox) = c.split();
            let mut m = Matcher::new(inbox);
            let mut dc = DirectCollectives::new(&h, &mut m, CollId(9002));
            let mut data = vec![me as f32, -(me as f32)];
            dc.ring_allreduce_f32(&mut data, ReduceOp::Max);
            data
        });
        for v in out {
            assert_eq!(v, vec![3.0, 0.0]);
        }
    }

    #[test]
    fn multiple_sequential_ring_calls() {
        let p = 4;
        let out = World::launch(WorldConfig::instant(p), move |c| {
            let (h, inbox) = c.split();
            let mut m = Matcher::new(inbox);
            let mut dc = DirectCollectives::new(&h, &mut m, CollId(9003));
            let mut results = Vec::new();
            for round in 1..=3 {
                let mut data = vec![round as f32];
                dc.ring_allreduce_f32(&mut data, ReduceOp::Sum);
                results.push(data[0]);
            }
            results
        });
        for v in out {
            assert_eq!(v, vec![4.0, 8.0, 12.0]);
        }
    }
}
