//! `pcoll_comm` alone: point-to-point messages between two ranks on the
//! raw communicator (no engine, no collectives) — small-message one-way
//! time and rate on the workload's transport, and bulk throughput of
//! tensor-sized messages over loopback TCP, where framing, the byte pool
//! and the socket writers do the work.

use crate::spec::Spec;
use crate::world::{launch_world, Job, JobKind};
use pcoll_comm::{CollId, Matcher, TypedBuf, WireTag};
use serde::{Deserialize, Serialize};
use std::time::Instant;

const COLL: CollId = CollId(9000);
const PING: u32 = 0;
const PONG: u32 = 1;
const STREAM: u32 = 2;
const ACK: u32 = 3;
const BULK: u32 = 4;

/// What the two ranks exchange in one launch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CommPlan {
    /// Eight-byte ping-pongs.
    pub pings: u64,
    /// Eight-byte messages streamed one way before one acknowledgement.
    pub stream: u64,
    /// Messages of `bulk_elems` f32 streamed one way.
    pub bulk_msgs: u64,
    pub bulk_elems: u64,
}

/// Rank 0's measurements (rank 1 only echoes).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct CommOut {
    /// Round-trip time of each ping-pong.
    pub rtt_ns: Vec<u64>,
    pub stream_s: f64,
    pub bulk_s: f64,
}

impl CommPlan {
    fn job(&self, label: &str) -> Job {
        Job::new(
            JobKind::Comm,
            label,
            &[self.pings, self.stream, self.bulk_msgs, self.bulk_elems],
        )
    }

    pub fn from_job(job: &Job) -> Option<CommPlan> {
        match job.counts[..] {
            [pings, stream, bulk_msgs, bulk_elems] => Some(CommPlan {
                pings,
                stream,
                bulk_msgs,
                bulk_elems,
            }),
            _ => None,
        }
    }
}

/// Two ranks, rank 0 drives and times, rank 1 answers.
pub fn launch(spec: &Spec, seed: u64, tcp: bool, plan: CommPlan, label: &str) -> Option<CommOut> {
    let outs = launch_world(spec, seed, 2, tcp, &plan.job(label), move |c| {
        let rank = c.rank();
        let peer = 1 - rank;
        let (handle, inbox) = c.split();
        let mut matcher = Matcher::new(inbox);
        let small = || Some(TypedBuf::from(vec![0i64]));
        let mut out = CommOut::default();
        for i in 0..plan.pings {
            if rank == 0 {
                let t0 = Instant::now();
                handle.send(peer, WireTag::new(COLL, i, PING), small());
                matcher.recv(peer, WireTag::new(COLL, i, PONG));
                out.rtt_ns.push(t0.elapsed().as_nanos() as u64);
            } else {
                matcher.recv(peer, WireTag::new(COLL, i, PING));
                handle.send(peer, WireTag::new(COLL, i, PONG), small());
            }
        }
        let mut one_way = |sem: u32, msgs: u64, elems: u64| {
            let t0 = Instant::now();
            if rank == 0 {
                let payload = (elems > 0).then(|| {
                    pcoll_comm::Payload::new(TypedBuf::from(vec![1.0f32; elems as usize]))
                });
                for i in 0..msgs {
                    match &payload {
                        Some(p) => {
                            handle.send_payload(peer, WireTag::new(COLL, i, sem), Some(p.clone()))
                        }
                        None => handle.send(peer, WireTag::new(COLL, i, sem), small()),
                    }
                }
                matcher.recv(peer, WireTag::new(COLL, u64::from(sem), ACK));
            } else {
                for i in 0..msgs {
                    matcher.recv(peer, WireTag::new(COLL, i, sem));
                }
                handle.send(peer, WireTag::new(COLL, u64::from(sem), ACK), small());
            }
            t0.elapsed().as_secs_f64()
        };
        if plan.stream > 0 {
            out.stream_s = one_way(STREAM, plan.stream, 0);
        }
        if plan.bulk_msgs > 0 {
            out.bulk_s = one_way(BULK, plan.bulk_msgs, plan.bulk_elems);
        }
        out
    })?;
    outs.into_iter().next()
}
