//! Classic blocking allreduce algorithms implemented directly over the
//! point-to-point [`Matcher`] (no schedule engine): ring allreduce
//! (bandwidth-optimal, Baidu/Horovod-style) and Rabenseifner's algorithm
//! (recursive-halving reduce-scatter + recursive-doubling allgather).
//!
//! These exist for the §7-motivated ablation — "the optimal algorithm
//! depends on network topology, number of processes, and message size" —
//! so the benchmark harness can compare the engine's tree allreduce with
//! the standard large-message algorithms. They are synchronous by
//! construction (each phase blocks on its receive).
//!
//! Data-path discipline: hops never `to_vec()` per step. Working chunks
//! are shared [`Payload`]s — a ring hop sends a reference-count bump (or
//! a sub-range [`Payload::view`]), a received chunk is forwarded without
//! copying, and receive-side reductions fold straight into the
//! accumulator ([`Payload::reduce_assign`] into a chunk payload,
//! [`Payload::fold_into`] / [`Payload::store_into`] into a range of the
//! caller's slice) — over TCP directly from the frame's undecoded wire
//! bytes. Those are the same `pcoll_comm` kernel the engine's `Combine`
//! and `CopyAt` run, which is what makes these algorithms an oracle for
//! the schedules and not for the arithmetic.

use pcoll_comm::{CollId, CommHandle, Matcher, Payload, ReduceOp, TypedBuf, WireTag};

/// Context for direct (engine-less) collective algorithms.
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
    /// Bind the algorithms to a rank's endpoint under collective id `coll`.
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

    /// Rabenseifner's allreduce for power-of-two P: recursive-halving
    /// reduce-scatter followed by recursive-doubling allgather.
    pub fn rabenseifner_allreduce_f32(&mut self, data: &mut [f32], op: ReduceOp) {
        let p = self.handle.size();
        let me = self.handle.rank();
        self.round += 1;
        assert!(p.is_power_of_two(), "rabenseifner requires power-of-two P");
        if p == 1 {
            return;
        }
        let n = data.len();
        let levels = p.trailing_zeros();

        // Recursive halving: at level k, exchange the half of the current
        // window that the partner owns, and recurse into our half. The
        // window lives in a shared payload: each level sends the give
        // half as a sub-range view (a refcount bump, and over TCP only
        // that range is framed), then narrows to the keep half — the
        // copy-on-write materializes exactly the keep range, so total
        // copies telescope to ≈ n instead of a full window per level.
        let mut window = Payload::new(TypedBuf::from(data.to_vec()));
        let mut lo = 0usize;
        let mut hi = n;
        let mut halves: Vec<(usize, usize)> = Vec::with_capacity(levels as usize);
        for k in 0..levels {
            let partner = me ^ (1usize << (levels - 1 - k));
            let mid = lo + (hi - lo) / 2;
            // Lower rank of the pair keeps [lo, mid), the higher keeps [mid, hi).
            let (keep, give) = if me < partner {
                ((lo, mid), (mid, hi))
            } else {
                ((mid, hi), (lo, mid))
            };
            let sem = 2000 + k;
            let give_view = window.view(give.0 - lo, give.1 - give.0);
            self.handle
                .send_payload(partner, self.tag(sem), Some(give_view));
            if k + 1 == levels {
                // Last level: the keep window is this rank's final
                // reduce-scatter block, so land it in `data` and fold the
                // partner's half straight in from the wire
                // (`Matcher::recv_combine`) — no intermediate window.
                window
                    .view(keep.0 - lo, keep.1 - keep.0)
                    .store_into(&mut data[keep.0..keep.1])
                    .expect("final window shape");
                self.matcher
                    .recv_combine(partner, self.tag(sem), &mut data[keep.0..keep.1], op)
                    .expect("halving recv");
            } else {
                let msg = self
                    .matcher
                    .recv(partner, self.tag(sem))
                    .expect("halving recv");
                let incoming = msg.payload.expect("data");
                window = window.view(keep.0 - lo, keep.1 - keep.0);
                window
                    .reduce_assign(&incoming, op)
                    .expect("halving shape mismatch");
            }
            halves.push((keep.0, keep.1));
            lo = keep.0;
            hi = keep.1;
        }

        // Recursive doubling allgather: unwind, exchanging the window we
        // own for the partner's. Windows concatenate as they double, so
        // each level's send materializes its window once; receives write
        // straight into `data` (from the wire bytes on TCP).
        for k in (0..levels).rev() {
            let partner = me ^ (1usize << (levels - 1 - k));
            let (own_lo, own_hi) = (lo, hi);
            let (parent_lo, parent_hi) = if k == 0 {
                (0, n)
            } else {
                halves[k as usize - 1]
            };
            let sem = 3000 + k;
            let payload = TypedBuf::from(data[own_lo..own_hi].to_vec());
            self.handle.send(partner, self.tag(sem), Some(payload));
            // The partner owns the other half of our parent window.
            let (other_lo, other_hi) = if own_lo == parent_lo {
                (own_hi, parent_hi)
            } else {
                (parent_lo, own_lo)
            };
            self.matcher
                .recv_copy(partner, self.tag(sem), &mut data[other_lo..other_hi])
                .expect("doubling recv");
            lo = parent_lo;
            hi = parent_hi;
        }
    }
}

impl<'a> DirectCollectives<'a> {
    /// Ring allgather: each rank contributes `block` and receives the
    /// concatenation of all ranks' blocks in rank order. P−1 hops, each
    /// forwarding the payload received on the previous hop without
    /// copying it (a refcount bump in process, an undecoded byte relay
    /// over TCP).
    pub fn allgather_f32(&mut self, block: &[f32]) -> Vec<f32> {
        let p = self.handle.size();
        let me = self.handle.rank();
        self.round += 1;
        let n = block.len();
        let mut out = vec![0.0f32; n * p];
        out[me * n..(me + 1) * n].copy_from_slice(block);
        if p == 1 {
            return out;
        }
        let next = (me + 1) % p;
        let prev = (me + p - 1) % p;
        let mut carry = Payload::new(TypedBuf::from(block.to_vec()));
        for s in 0..p - 1 {
            let sem = 4000 + s as u32;
            self.handle
                .send_payload(next, self.tag(sem), Some(carry.clone()));
            let msg = self
                .matcher
                .recv(prev, self.tag(sem))
                .expect("allgather recv");
            let incoming = msg.payload.expect("data");
            // The block arriving at step s originated at rank (me-1-s).
            let origin = (me + p - 1 - s) % p;
            incoming
                .store_into(&mut out[origin * n..(origin + 1) * n])
                .expect("allgather shape");
            carry = incoming;
        }
        out
    }

    /// Reduce-scatter (ring): input is `p` equal blocks concatenated;
    /// returns this rank's fully reduced block (block index = rank).
    /// This is the first phase of ring allreduce, exposed directly.
    /// Scratch is one payload per block, allocated once and reused
    /// across all steps: sends are shared clones, receive-side folds run
    /// in place (from the frame's wire bytes on TCP).
    pub fn reduce_scatter_f32(&mut self, data: &[f32], op: ReduceOp) -> Vec<f32> {
        let p = self.handle.size();
        let me = self.handle.rank();
        self.round += 1;
        assert_eq!(data.len() % p.max(1), 0, "data must split into P blocks");
        let n = data.len() / p;
        if p == 1 {
            return data.to_vec();
        }
        let next = (me + 1) % p;
        let prev = (me + p - 1) % p;
        let mut acc: Vec<Payload> = (0..p)
            .map(|c| Payload::new(TypedBuf::from(data[c * n..(c + 1) * n].to_vec())))
            .collect();
        // Chunk c starts its accumulation journey at rank c+1 and ends,
        // fully reduced, at rank c after p−1 hops: at step s rank r sends
        // chunk (r−1−s) and folds in chunk (r−2−s); after the last step
        // the chunk received is exactly r.
        for s in 0..p - 1 {
            let send_chunk = (me + 2 * p - 1 - s) % p;
            let recv_chunk = (me + 2 * p - 2 - s) % p;
            let sem = 5000 + s as u32;
            self.handle
                .send_payload(next, self.tag(sem), Some(acc[send_chunk].clone()));
            let msg = self
                .matcher
                .recv(prev, self.tag(sem))
                .expect("reduce-scatter recv");
            let incoming = msg.payload.expect("data");
            acc[recv_chunk]
                .reduce_assign(&incoming, op)
                .expect("reduce-scatter shape");
        }
        // Chunk `me` was never sent, so this rank is its sole owner and
        // the unwrap is copy-free.
        match acc.swap_remove(me).into_buf() {
            TypedBuf::F32(v) => v,
            _ => unreachable!("f32 blocks by construction"),
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
    fn rabenseifner_matches_ring() {
        for (p, n) in [(2usize, 8usize), (4, 16), (8, 64), (16, 33)] {
            let out = World::launch(WorldConfig::instant(p), move |c| {
                let me = c.rank();
                let (h, inbox) = c.split();
                let mut m = Matcher::new(inbox);
                let mut dc = DirectCollectives::new(&h, &mut m, CollId(9001));
                let mut data: Vec<f32> = (0..n).map(|i| (me * n + i) as f32).collect();
                dc.rabenseifner_allreduce_f32(&mut data, ReduceOp::Sum);
                data
            });
            let want = expected_sum(p, n);
            for (r, v) in out.iter().enumerate() {
                assert_eq!(v, &want, "p={p} n={n} rank {r}");
            }
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
    fn allgather_concatenates_in_rank_order() {
        for p in [1usize, 2, 3, 5, 8] {
            let n = 3;
            let out = World::launch(WorldConfig::instant(p), move |c| {
                let me = c.rank();
                let (h, inbox) = c.split();
                let mut m = Matcher::new(inbox);
                let mut dc = DirectCollectives::new(&h, &mut m, CollId(9100));
                let block: Vec<f32> = (0..n).map(|i| (me * 10 + i) as f32).collect();
                dc.allgather_f32(&block)
            });
            let want: Vec<f32> = (0..p)
                .flat_map(|r| (0..n).map(move |i| (r * 10 + i) as f32))
                .collect();
            for (r, v) in out.iter().enumerate() {
                assert_eq!(v, &want, "p={p} rank {r}");
            }
        }
    }

    #[test]
    fn reduce_scatter_gives_each_rank_its_block() {
        for p in [2usize, 4, 6] {
            let n = 2; // block length
            let out = World::launch(WorldConfig::instant(p), move |c| {
                let me = c.rank();
                let (h, inbox) = c.split();
                let mut m = Matcher::new(inbox);
                let mut dc = DirectCollectives::new(&h, &mut m, CollId(9101));
                // Every rank contributes value (me+1) in every position.
                let data = vec![(me + 1) as f32; n * p];
                dc.reduce_scatter_f32(&data, ReduceOp::Sum)
            });
            let total: f32 = (1..=p).map(|x| x as f32).sum();
            for (r, v) in out.iter().enumerate() {
                assert_eq!(v, &vec![total; n], "p={p} rank {r}");
            }
        }
    }

    #[test]
    fn reduce_scatter_then_allgather_equals_allreduce() {
        // The Rabenseifner identity, on the ring primitives.
        let p = 4;
        let n = 2;
        let out = World::launch(WorldConfig::instant(p), move |c| {
            let me = c.rank();
            let (h, inbox) = c.split();
            let mut m = Matcher::new(inbox);
            let mut dc = DirectCollectives::new(&h, &mut m, CollId(9102));
            let data: Vec<f32> = (0..n * p).map(|i| (me * 100 + i) as f32).collect();
            let mine = dc.reduce_scatter_f32(&data, ReduceOp::Sum);
            let gathered = dc.allgather_f32(&mine);
            let mut direct = data.clone();
            dc.ring_allreduce_f32(&mut direct, ReduceOp::Sum);
            (gathered, direct)
        });
        for (r, (gathered, direct)) in out.iter().enumerate() {
            assert_eq!(gathered, direct, "rank {r}");
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
