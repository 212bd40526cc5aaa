//! Launching a world on either transport, and telling TCP worker
//! processes which launch they belong to.
//!
//! A TCP launch re-executes this binary once per rank. The parent decides
//! everything a launch runs (step and round counts come from measurements
//! only it has), so instead of replaying the parent's control flow a
//! worker is started with `--worker <job>`, which names one launch and
//! carries its numbers; `main` dispatches on it straight into the same
//! launch function, which never returns in a worker.

use crate::spec::Spec;
use pcoll_comm::{Communicator, TcpOpts, World, WorldConfig};
use serde::{Deserialize, Serialize};

/// The launches a run is made of.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobKind {
    /// `run_rank` phases (`train.rs`).
    Train,
    /// The benchmark's own partial-allreduce loops (`coll.rs`).
    Coll,
    /// The hand-written blocking ring, no engine (`coll.rs`).
    Ring,
    /// Point-to-point messages on the raw communicator (`comm.rs`).
    Comm,
}

impl JobKind {
    fn name(self) -> &'static str {
        match self {
            JobKind::Train => "train",
            JobKind::Coll => "coll",
            JobKind::Ring => "ring",
            JobKind::Comm => "comm",
        }
    }
}

/// One launch: its kind, its TCP label (unique within a run) and the
/// counts the ranks need.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Job {
    pub kind: JobKind,
    pub label: String,
    pub counts: Vec<u64>,
}

impl Job {
    pub fn new(kind: JobKind, label: &str, counts: &[u64]) -> Job {
        Job {
            kind,
            label: label.to_owned(),
            counts: counts.to_vec(),
        }
    }

    fn encode(&self) -> String {
        let counts: Vec<String> = self.counts.iter().map(u64::to_string).collect();
        format!("{}:{}:{}", self.kind.name(), self.label, counts.join(","))
    }

    /// Parse a `--worker` value.
    pub fn decode(value: &str) -> Option<Job> {
        let mut parts = value.splitn(3, ':');
        let kind = match parts.next()? {
            "train" => JobKind::Train,
            "coll" => JobKind::Coll,
            "ring" => JobKind::Ring,
            "comm" => JobKind::Comm,
            _ => return None,
        };
        let label = parts.next()?.to_owned();
        let counts = parts
            .next()?
            .split(',')
            .filter(|c| !c.is_empty())
            .map(|c| c.parse().ok())
            .collect::<Option<Vec<u64>>>()?;
        Some(Job {
            kind,
            label,
            counts,
        })
    }
}

/// Run `f` on every rank of a `p`-rank world: rank threads, or one
/// process per rank over loopback when `tcp`. `None` only in a TCP worker
/// whose `--worker` label names another launch.
pub fn launch_world<T, F>(
    spec: &Spec,
    seed: u64,
    p: usize,
    tcp: bool,
    job: &Job,
    f: F,
) -> Option<Vec<T>>
where
    T: Serialize + Deserialize + Send + 'static,
    F: Fn(Communicator) -> T + Send + Sync + 'static,
{
    let cfg = WorldConfig::instant(p).with_seed(spec.schedule_seed);
    if tcp {
        let args = [
            "--workload",
            spec.name,
            "--seed",
            &seed.to_string(),
            "--worker",
            &job.encode(),
        ]
        .map(String::from)
        .to_vec();
        World::launch_tcp(cfg, TcpOpts::labeled(&job.label).with_child_args(args), f)
    } else {
        Some(World::launch(cfg, f))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn job_round_trips_through_argv() {
        let job = Job::new(JobKind::Coll, "coll0", &[12, 0, 7]);
        assert_eq!(Job::decode(&job.encode()), Some(job));
        let empty = Job::new(JobKind::Ring, "r", &[]);
        assert_eq!(Job::decode(&empty.encode()), Some(empty));
        assert_eq!(Job::decode("nonsense:x:1"), None);
        assert_eq!(Job::decode("train:x:1,b"), None);
    }
}
