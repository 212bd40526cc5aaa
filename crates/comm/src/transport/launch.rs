//! `launch_tcp`: the parent (spawn, rendezvous, results) and the worker
//! (mesh build, closure, report).

use super::mesh::{accept_loop, PeerCmd, TcpPeers};
use super::rendezvous::{obj, register, rendezvous_service, Hello, RendezvousState};
use super::{stop_accepting, Route};
use crate::membership::Membership;
use crate::stats::CommStats;
use crate::tag::Rank;
use crate::world::{CommHandle, Communicator, Inbox, WorldConfig};
use crossbeam::channel::{bounded, unbounded, RecvTimeoutError, SendTimeoutError};
use serde::json::Value;
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;
use std::net::TcpListener;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Options for a TCP (process-per-rank) launch.
#[derive(Debug, Clone)]
pub struct TcpOpts {
    /// Name of this launch call site. A worker process only serves the
    /// matching site; unrelated sites return `None` from [`launch_tcp`].
    pub label: String,
    /// Argv (minus program name) for the re-`exec`ed workers. Defaults to
    /// this process's own arguments, which is right whenever the worker
    /// reaches the launch call the same way the parent did. Test
    /// harnesses instead pass `[test_name, "--exact"]` so a worker runs
    /// exactly one test.
    pub child_args: Option<Vec<String>>,
    /// Watchdog for rendezvous and per-rank results: a worker that takes
    /// longer than this to connect or to report its result fails the
    /// launch (and all workers are killed). Overridable via the
    /// `PCOLL_TCP_TIMEOUT_SECS` environment variable.
    pub timeout: Duration,
    /// Parent rendezvous listen address (`"host:port"`). `None` — the
    /// default — binds an ephemeral loopback port and self-`exec`s one
    /// worker process per rank. `Some` switches to *externally launched*
    /// workers: the parent binds here, spawns nothing, and waits for
    /// `nranks` workers started by the operator with the `PCOLL_TCP_*`
    /// environment pointing back at this address. Settable via
    /// `PCOLL_TCP_LISTEN`.
    pub listen: Option<String>,
    /// Relaunch a worker whose process dies mid-run (once per rank),
    /// with `PCOLL_TCP_REJOIN=1` in its environment so it comes back
    /// asking for re-admission instead of an initial mesh slot. Only
    /// meaningful in self-`exec` mode (externally launched workers are
    /// the operator's to relaunch), and only useful with a closure that
    /// takes the rejoin path (see [`is_tcp_rejoiner`] and the `pcoll`
    /// crate's `RankCtx::admit`).
    pub respawn: bool,
}

impl TcpOpts {
    /// Default options for a launch site named `label`.
    pub fn labeled(label: impl Into<String>) -> Self {
        let timeout = std::env::var(ENV_TIMEOUT)
            .ok()
            .and_then(|s| s.parse::<u64>().ok())
            .map_or(Duration::from_secs(120), Duration::from_secs);
        TcpOpts {
            label: label.into(),
            child_args: None,
            timeout,
            listen: std::env::var(ENV_LISTEN).ok(),
            respawn: false,
        }
    }

    /// Builder: explicit worker argv.
    pub fn with_child_args(mut self, args: Vec<String>) -> Self {
        self.child_args = Some(args);
        self
    }

    /// Builder: externally launched workers — the parent binds `addr`
    /// and spawns nothing (see [`TcpOpts::listen`]).
    pub fn with_listen(mut self, addr: impl Into<String>) -> Self {
        self.listen = Some(addr.into());
        self
    }

    /// Builder: relaunch dead workers once for rejoin (see
    /// [`TcpOpts::respawn`]).
    pub fn with_respawn(mut self) -> Self {
        self.respawn = true;
        self
    }
}

const ENV_RANK: &str = "PCOLL_TCP_RANK";
const ENV_NRANKS: &str = "PCOLL_TCP_NRANKS";
const ENV_PARENT: &str = "PCOLL_TCP_PARENT";
const ENV_LABEL: &str = "PCOLL_TCP_LABEL";
const ENV_TIMEOUT: &str = "PCOLL_TCP_TIMEOUT_SECS";
const ENV_LISTEN: &str = "PCOLL_TCP_LISTEN";
const ENV_BIND: &str = "PCOLL_TCP_BIND";
const ENV_ADVERTISE: &str = "PCOLL_TCP_ADVERTISE";
const ENV_REJOIN: &str = "PCOLL_TCP_REJOIN";

/// True when this process is a re-`exec`ed TCP rank worker. Callers use
/// this to skip work that only the parent should do (e.g. the in-process
/// half of a both-backends comparison).
pub fn is_tcp_worker() -> bool {
    std::env::var_os(ENV_RANK).is_some()
}

/// True when this process is a relaunched worker that must *rejoin* a
/// running world: its previous incarnation was evicted, so instead of
/// taking an initial mesh slot it dials every live peer and the SPMD
/// closure must take the rejoin path — import the policy/membership
/// history from the blackboard ([`crate::RendezvousClient`]) and enter the
/// admission fence rather than computing from round 0.
pub fn is_tcp_rejoiner() -> bool {
    std::env::var_os(ENV_REJOIN).is_some()
}

/// Bound on how long teardown waits to enqueue one peer's goodbye when
/// that peer's writer queue is full. Healthy peers drain in microseconds;
/// anything slower than this is a stuck link that teardown skips (the
/// skip is counted in [`CommStats::drain_skips`]).
const GOODBYE_DRAIN_WAIT: Duration = Duration::from_secs(5);

/// Launch `cfg.nranks` rank *processes* over loopback TCP and run `f` on
/// each (see module docs for the full protocol).
///
/// Returns `Some(results)` in the parent; in a worker process serving a
/// *different* launch label it returns `None` immediately (skip the work
/// and fall through to the matching call site); in the worker serving
/// *this* label it never returns — the worker runs `f` for its rank,
/// reports the result to the parent, and exits.
pub fn launch_tcp<T, F>(cfg: WorldConfig, opts: TcpOpts, f: F) -> Option<Vec<T>>
where
    T: serde::Serialize + serde::Deserialize + Send + 'static,
    F: FnOnce(Communicator) -> T,
{
    let (results, _evicted) = launch(cfg, opts, f, false)?;
    Some(
        results
            .into_iter()
            .map(|r| r.expect("all ranks reported"))
            .collect(),
    )
}

/// Fault-tolerant variant of [`launch_tcp`]: the parent survives worker
/// deaths that the remaining ranks detected and reported as evictions.
///
/// Returns `Some((results, evicted))` in the parent, where `results[r]`
/// is `None` exactly for the ranks in `evicted` (sorted). A worker that
/// dies *without* any survivor declaring it down — or any worker that
/// panics — still fails the launch, so genuine bugs cannot hide behind
/// the tolerance.
pub fn launch_tcp_tolerant<T, F>(
    cfg: WorldConfig,
    opts: TcpOpts,
    f: F,
) -> Option<(Vec<Option<T>>, Vec<Rank>)>
where
    T: serde::Serialize + serde::Deserialize + Send + 'static,
    F: FnOnce(Communicator) -> T,
{
    launch(cfg, opts, f, true)
}

fn launch<T, F>(
    cfg: WorldConfig,
    opts: TcpOpts,
    f: F,
    tolerant: bool,
) -> Option<(Vec<Option<T>>, Vec<Rank>)>
where
    T: serde::Serialize + serde::Deserialize + Send + 'static,
    F: FnOnce(Communicator) -> T,
{
    assert!(cfg.nranks > 0, "world must have at least one rank");
    if !is_tcp_worker() {
        return Some(run_parent::<T>(&cfg, &opts, tolerant));
    }
    if std::env::var(ENV_LABEL).unwrap_or_default() != opts.label {
        return None;
    }
    run_worker(cfg, &opts, f)
}

/// Kills (and reaps) still-running workers when the parent unwinds.
struct ChildGuard {
    children: Vec<(Rank, Child)>,
}

impl Drop for ChildGuard {
    fn drop(&mut self) {
        for (_, c) in &mut self.children {
            let _ = c.kill();
            let _ = c.wait();
        }
    }
}

/// Parent side of the rendezvous. With `tolerant == false` any worker
/// failure is fatal. With `tolerant == true` the watchdog distinguishes
/// "worker evicted" from "run failed": a worker that dies without a
/// report is forgiven *iff* at least one survivor's report lists it as
/// down, its non-zero exit status is tolerated, and it comes back as a
/// `None` slot plus an entry in the returned eviction list. Worker
/// *panics* (an explicit failure report) stay fatal in both modes, and
/// so does a final report the launcher cannot read (no `value`, or one
/// that does not deserialize): judging reports is the launcher's job,
/// not the rendezvous service's.
fn run_parent<T: serde::Deserialize>(
    cfg: &WorldConfig,
    opts: &TcpOpts,
    tolerant: bool,
) -> (Vec<Option<T>>, Vec<Rank>) {
    let nranks = cfg.nranks;
    // An explicit listen address switches the parent to *externally
    // launched* workers: bind where told (possibly a routable
    // interface), spawn nothing, and wait for the operator's workers.
    let external = opts.listen.is_some();
    let bind_addr = opts.listen.clone().unwrap_or_else(|| "127.0.0.1:0".into());
    let listener = TcpListener::bind(&bind_addr)
        .unwrap_or_else(|e| panic!("bind rendezvous listener on {bind_addr}: {e}"));
    let addr = listener.local_addr().expect("rendezvous addr");
    let exe = std::env::current_exe().expect("current_exe for self-exec");
    let args: Vec<String> = opts
        .child_args
        .clone()
        .unwrap_or_else(|| std::env::args().skip(1).collect());

    let mut guard = ChildGuard {
        children: Vec::new(),
    };
    if external {
        eprintln!(
            "pcoll-comm: rendezvous on {addr}: waiting for {nranks} externally \
             launched workers (label {:?})",
            opts.label
        );
    } else {
        for rank in 0..nranks {
            let child =
                spawn_worker_process(&exe, &args, rank, cfg, opts, &addr.to_string(), false);
            guard.children.push((rank, child));
        }
    }

    // The rendezvous service owns the listener from here to teardown:
    // start-up hellos come back over `hellos`, every worker's final
    // report (or death) over `reports`.
    let (reports_tx, reports) = unbounded();
    let state = Arc::new(RendezvousState::new(
        nranks,
        cfg.seed,
        reports_tx,
        opts.timeout,
    ));
    let (hellos_tx, hellos) = unbounded();
    let stop = Arc::new(AtomicBool::new(false));
    let service = {
        let (state, stop) = (Arc::clone(&state), Arc::clone(&stop));
        std::thread::Builder::new()
            .name("pcoll-tcp-rendezvous".into())
            .spawn(move || rendezvous_service(listener, state, hellos_tx, stop))
            .expect("spawn rendezvous service")
    };

    // Start-up: wait for every rank's hello. Any spawned worker's exit
    // during rendezvous — even a clean one — means it will never connect
    // (bad argv, a `--exact` filter matching no test, a panic before the
    // launch call): fail fast with the real cause instead of blocking out
    // the whole watchdog window. (In external mode there are no children
    // to poll.)
    let deadline = Instant::now() + opts.timeout;
    let mut conns = Vec::with_capacity(nranks);
    while conns.len() < nranks {
        match hellos.recv_timeout(Duration::from_millis(10)) {
            Ok(hello) => conns.push(hello),
            Err(RecvTimeoutError::Timeout) => {
                for (rank, child) in &mut guard.children {
                    if let Ok(Some(status)) = child.try_wait() {
                        panic!(
                            "tcp worker for rank {rank} exited during rendezvous ({status}) — \
                             it never reached the launch call (check the worker argv/label)"
                        );
                    }
                }
                assert!(
                    Instant::now() < deadline,
                    "timed out waiting for worker rendezvous ({} of {nranks} ranks registered)",
                    conns.len()
                );
            }
            Err(RecvTimeoutError::Disconnected) => panic!("rendezvous service stopped"),
        }
    }

    // Every rank is in: send the port map, then serve every worker
    // connection concurrently (results can arrive in any order; a panic
    // report must not hide behind a slower rank's read; blackboard
    // put/get frames ride the same streams). The service keeps accepting
    // so an evicted-and-relaunched rank can dial back in for rejoin.
    let readers: Vec<_> = conns.into_iter().map(|(r, s)| state.serve(r, s)).collect();

    let mut results: Vec<Option<T>> = (0..nranks).map(|_| None).collect();
    let mut missing: Vec<Rank> = Vec::new();
    let mut evicted: BTreeSet<Rank> = BTreeSet::new();
    // Ranks whose *connection* died at some point, even if a relaunched
    // incarnation later reported: their first process may have exited
    // with any status (kill -9 is a signal, not an exit code).
    let mut ever_down: BTreeSet<Rank> = BTreeSet::new();
    let mut respawned = vec![false; nranks];
    let mut done = 0usize;
    while done < nranks {
        let (rank, report) = reports
            .recv_timeout(opts.timeout + Duration::from_secs(5))
            .expect("result readers stalled");
        let report = match report {
            Ok(r) => r,
            Err(e) => {
                ever_down.insert(rank as Rank);
                if opts.respawn && !external && !respawned[rank] {
                    // Elastic mode: give the dead rank's slot a second
                    // process. It comes back through the rendezvous with
                    // `rejoin: true`, and must be re-admitted by the
                    // app's admission fence before it contributes; its
                    // eventual report (or second death) settles the slot.
                    eprintln!("pcoll-comm: tcp rank {rank} died ({e}); relaunching for rejoin");
                    respawned[rank] = true;
                    let child =
                        spawn_worker_process(&exe, &args, rank, cfg, opts, &addr.to_string(), true);
                    guard.children.push((rank, child));
                    continue;
                }
                if tolerant {
                    // Dead worker: its socket closed without a report.
                    // Whether that is an eviction or a run failure is
                    // decided below, once the survivors' reports are in.
                    eprintln!("pcoll-comm: tcp rank {rank}: no result from worker: {e}");
                    missing.push(rank as Rank);
                    done += 1;
                    continue;
                }
                panic!("tcp rank {rank}: no result from worker: {e}");
            }
        };
        if let Ok(down) = report.field("evicted").and_then(Value::as_arr) {
            evicted.extend(down.iter().filter_map(|v| Rank::from_value(v).ok()));
        }
        if !matches!(report.field("ok"), Ok(Value::Bool(true))) {
            let msg = report.field("panic").and_then(String::from_value);
            let msg = msg.unwrap_or_else(|_| "worker failed without a message".into());
            panic!("tcp rank {rank} panicked: {msg}");
        }
        let value = report.field("value").expect("result value");
        if results[rank].is_none() {
            done += 1;
        }
        results[rank] = Some(
            T::from_value(value)
                .unwrap_or_else(|e| panic!("tcp rank {rank}: result deserialization failed: {e}")),
        );
    }
    for j in readers {
        let _ = j.join();
    }
    stop_accepting(&stop, addr);
    for j in service.join().expect("rendezvous service") {
        let _ = j.join();
    }
    // A silent death only counts as an eviction if a survivor noticed it;
    // a rank nobody declared down means the run itself is broken.
    for &rank in &missing {
        assert!(
            evicted.contains(&rank),
            "tcp rank {rank} died without a report and no survivor declared it down"
        );
    }

    // Reap workers. Evicted workers — and the first incarnation
    // of a rank that was relaunched for rejoin — are allowed to die with
    // any status (kill -9 shows up as a signal, not an exit code).
    for (rank, child) in &mut guard.children {
        let status = child.wait().expect("wait tcp worker");
        assert!(
            status.success() || ever_down.contains(rank) || (tolerant && evicted.contains(rank)),
            "tcp worker for rank {rank} exited with {status}"
        );
    }
    guard.children.clear();

    (results, evicted.into_iter().collect())
}

/// Spawn one rank worker (the self-`exec` path). `rejoin` marks the
/// relaunch of a dead rank: the fresh process comes up knowing it must
/// ask the running world for re-admission instead of taking an initial
/// mesh slot.
fn spawn_worker_process(
    exe: &std::path::Path,
    args: &[String],
    rank: Rank,
    cfg: &WorldConfig,
    opts: &TcpOpts,
    parent_addr: &str,
    rejoin: bool,
) -> Child {
    let mut cmd = Command::new(exe);
    cmd.args(args)
        .env(ENV_RANK, rank.to_string())
        .env(ENV_NRANKS, cfg.nranks.to_string())
        .env(ENV_PARENT, parent_addr)
        .env(ENV_LABEL, &opts.label)
        // Trace settings cross the exec boundary as environment:
        // a programmatic `with_trace` reaches every worker.
        .env(pcoll_obs::ENV_TRACE, cfg.trace.level.to_string())
        .env(pcoll_obs::ENV_TRACE_CAP, cfg.trace.capacity.to_string())
        // Children must not re-enter parent (listen) mode or inherit a
        // stale rejoin marker from this process's own environment.
        .env_remove(ENV_LISTEN)
        .stdin(Stdio::null());
    if rejoin {
        cmd.env(ENV_REJOIN, "1");
    } else {
        cmd.env_remove(ENV_REJOIN);
    }
    // Workers stay silent, so a bench's report lines print once, by the
    // parent.
    cmd.stdout(Stdio::null());
    cmd.spawn()
        .unwrap_or_else(|e| panic!("spawn tcp rank worker {rank}: {e}"))
}

/// A worker's numeric environment variable (set by the launcher).
fn env_number(name: &str) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("tcp worker needs a numeric {name} in its environment"))
}

fn run_worker<T, F>(cfg: WorldConfig, opts: &TcpOpts, f: F) -> !
where
    T: serde::Serialize,
    F: FnOnce(Communicator) -> T,
{
    let rank: Rank = env_number(ENV_RANK);
    assert_eq!(
        env_number(ENV_NRANKS),
        cfg.nranks,
        "worker reconstructed a different world size than the parent \
         (launch arguments must be deterministic)"
    );
    let parent_addr = std::env::var(ENV_PARENT).expect("parent addr env");
    let rejoiner = is_tcp_rejoiner();
    let deadline = Instant::now() + opts.timeout;

    // Mesh listener first, so its address rides along in the hello.
    // `PCOLL_TCP_BIND` picks the interface (default: loopback, ephemeral
    // port); `PCOLL_TCP_ADVERTISE` overrides what the *peers* are told
    // to dial — the NAT / multi-NIC split: bind the wildcard interface,
    // advertise the routable name.
    let mesh_bind = std::env::var(ENV_BIND).unwrap_or_else(|_| "127.0.0.1:0".into());
    let mesh_listener = TcpListener::bind(&mesh_bind)
        .unwrap_or_else(|e| panic!("bind mesh listener on {mesh_bind}: {e}"));
    let mesh_addr = mesh_listener.local_addr().expect("mesh addr");
    let mesh_port = mesh_addr.port();
    let advertise = match std::env::var(ENV_ADVERTISE) {
        // A full host:port with a real port is taken verbatim; a bare
        // host (or host:0) gets the actually-bound port appended.
        Ok(a)
            if a.rsplit_once(':')
                .is_some_and(|(_, p)| p.parse::<u16>().is_ok_and(|p| p != 0)) =>
        {
            a
        }
        Ok(host) => format!("{}:{mesh_port}", host.trim_end_matches(":0")),
        Err(_) => {
            // Derive from the bind address, falling back to loopback for
            // the wildcard interface.
            let host = match mesh_bind.rsplit_once(':') {
                Some((h, _)) if !h.is_empty() && h != "0.0.0.0" && h != "[::]" => h,
                _ => "127.0.0.1",
            };
            format!("{host}:{mesh_port}")
        }
    };

    // All queues are bounded: the writer queues exert backpressure on
    // senders, the inbox backpressures the socket readers (and
    // transitively the remote writers).
    //
    // The worker's flight recorder comes from the environment the parent
    // process passed down (`WorldConfig::trace` does not cross the exec
    // boundary). Each process has its own wall-clock epoch, shared by
    // everything on the rank, so TCP trace timestamps are comparable
    // within a rank but not across ranks.
    let clock = pcoll_obs::Clock::wall();
    let recorder = pcoll_obs::TraceConfig::from_env().recorder(rank as u32, clock.clone());
    let stats = Arc::new(CommStats::with_recorder(recorder));
    let membership = Arc::new(Membership::new(rank, cfg.nranks));
    let (inbox_tx, inbox_rx) = bounded(cfg.queue_capacity);
    let peers = TcpPeers::new(
        inbox_tx,
        Arc::clone(&membership),
        Arc::clone(&stats),
        cfg.queue_capacity,
        cfg.queue_deadline,
    );
    // The one accept path is up before anyone can know this rank's
    // address, and stays up for the whole run so a relaunched rank can
    // dial back in.
    let accept_stop = Arc::new(AtomicBool::new(false));
    let acceptor = {
        let (peers, stop) = (Arc::clone(&peers), Arc::clone(&accept_stop));
        std::thread::Builder::new()
            .name(format!("pcoll-tcpa-{rank}"))
            .spawn(move || accept_loop(mesh_listener, peers, stop))
            .expect("spawn mesh accept thread")
    };

    // The rendezvous connection doubles as the blackboard link; the app
    // gets a cloneable client and the final report goes over the same
    // (lock-serialized) stream. A worker that cannot register cannot
    // join: it says why and exits, and the launcher sees the exit.
    let hello = Hello {
        rank,
        addr: advertise,
        rejoin: rejoiner,
    };
    let (rendezvous, world) = match register(&parent_addr, &hello, cfg.nranks, cfg.seed, deadline) {
        Ok(joined) => joined,
        Err(e) => {
            eprintln!("pcoll-comm: tcp rank {rank} could not register: {e}");
            std::process::exit(1);
        }
    };
    // A rejoiner starts life already knowing who is gone.
    for &d in &world.down {
        if d != rank {
            membership.report_down(d);
        }
    }
    // A newborn dials the ranks below it (those above dial it); a
    // rejoiner dials every live peer, whose accept loops splice it in.
    // Either way the closure starts only once every live peer routes to
    // this rank's connection.
    let dial_below = if rejoiner { cfg.nranks } else { rank };
    for (peer, addr) in world.addrs.iter().enumerate().take(dial_below) {
        if peer != rank && !membership.is_down(peer) {
            let retry_seed = cfg.seed ^ ((rank as u64) << 32) ^ peer as u64;
            peers.dial(peer, addr, deadline, retry_seed);
        }
    }
    peers.await_mesh(deadline);

    let comm = Communicator {
        handle: CommHandle {
            rank,
            size: cfg.nranks,
            seed: cfg.seed,
            route: Route::Tcp(Arc::clone(&peers)),
            stats: Arc::clone(&stats),
            queue_deadline: cfg.queue_deadline,
            membership: Arc::clone(&membership),
            clock,
        },
        inbox: Inbox { rx: inbox_rx },
        rendezvous: Some(rendezvous.clone()),
    };

    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || f(comm)));

    // Teardown: flush + goodbye every connection, then report. Reader
    // joins come last — they return when the peers goodbye in their own
    // teardown.
    for peer in 0..cfg.nranks {
        // `Finish` must queue behind all prior deliveries — but never
        // behind a corpse: draining toward a dead peer is skipped
        // outright, and a full queue gets a *bounded* wait (not the full
        // backpressure deadline) before the skip is recorded and teardown
        // moves on. A writer wedged past that is the parent watchdog's
        // problem, not a reason to hang every healthy goodbye. The
        // *current* slot contents matter: a peer that died and rejoined
        // drains through its spliced-in writer, not the dead original.
        if peer == rank {
            continue;
        }
        if membership.is_down(peer) {
            stats.drain_skips.fetch_add(1, Ordering::Relaxed);
            continue;
        }
        let Some(tx) = peers.peer_tx(peer) else {
            continue;
        };
        let wait = GOODBYE_DRAIN_WAIT.min(cfg.queue_deadline);
        if matches!(
            tx.send_timeout(PeerCmd::Finish, wait),
            Err(SendTimeoutError::Timeout(_))
        ) {
            stats.drain_skips.fetch_add(1, Ordering::Relaxed);
        }
    }
    stop_accepting(&accept_stop, mesh_addr);
    let _ = acceptor.join();
    let (writers, readers): (Vec<_>, Vec<_>) = peers.take_links().into_iter().unzip();
    for w in writers {
        let _ = w.join();
    }

    // Every report carries the ranks this worker locally declared dead,
    // so a tolerant parent can tell "worker evicted" from "run failed".
    let (outcome, code) = match &result {
        Ok(v) => (("value", v.to_value()), 0),
        Err(e) => {
            let msg = e
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| e.downcast_ref::<&str>().map(|s| (*s).to_owned()))
                .unwrap_or_else(|| "non-string panic payload".into());
            (("panic", Value::Str(msg)), 101)
        }
    };
    rendezvous.report(&obj(vec![
        ("ok", Value::Bool(code == 0)),
        outcome,
        ("evicted", membership.down().to_value()),
    ]));
    // Readers return when the peers goodbye in their own teardown.
    for r in readers {
        let _ = r.join();
    }
    drop(rendezvous);
    std::process::exit(code);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tag::{CollId, WireTag};
    use crate::transport::codec::{read_frame, write_frame};
    use crate::world::Envelope;
    use crate::TypedBuf;
    use std::io::Write;
    use std::net::{Shutdown, TcpStream};

    /// Full self-exec round trip: 3 rank processes pass a token around a
    /// ring over loopback. The worker re-runs exactly this test via
    /// `--exact` and exits inside `launch_tcp`.
    #[test]
    fn tcp_ring_pass_end_to_end() {
        let cfg = WorldConfig::instant(3).with_seed(5);
        let opts = TcpOpts::labeled("comm-ring").with_child_args(vec![
            "transport::launch::tests::tcp_ring_pass_end_to_end".into(),
            "--exact".into(),
        ]);
        let out = launch_tcp(cfg, opts, |c| {
            let next = (c.rank() + 1) % c.size();
            c.send(
                next,
                WireTag::new(CollId(9), 0, 0),
                Some(TypedBuf::from(vec![c.rank() as i64])),
            );
            match c.inbox().recv() {
                Some(Envelope::Data(m)) => m.payload.unwrap().into_buf().as_i64().unwrap()[0],
                other => panic!("expected data, got {other:?}"),
            }
        });
        // Only the parent gets here (matching workers exit inside).
        assert_eq!(out.expect("parent results"), vec![2, 0, 1]);
    }

    /// A worker's panic must surface in the parent with its message.
    #[test]
    fn tcp_worker_panic_propagates() {
        let opts = TcpOpts::labeled("comm-panic").with_child_args(vec![
            "transport::launch::tests::tcp_worker_panic_propagates".into(),
            "--exact".into(),
        ]);
        let result = std::panic::catch_unwind(|| {
            launch_tcp::<u32, _>(WorldConfig::instant(2), opts, |c| {
                if c.rank() == 1 {
                    panic!("boom from rank 1");
                }
                c.rank() as u32
            })
        });
        if is_tcp_worker() {
            // Rank 0's worker: its launch call returned through
            // catch_unwind only if it was the panicking rank (which
            // exits) — unreachable either way.
            unreachable!("workers exit inside launch_tcp");
        }
        let err = result.expect_err("parent must observe the worker panic");
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(
            msg.contains("boom from rank 1"),
            "panic message lost: {msg}"
        );
    }

    /// A misbehaving process on the rendezvous port of a running P = 2
    /// world: garbage, an over-nested hello, a start-up hello after
    /// start-up and a rejoin for a rank that is not down are each closed
    /// unanswered, and the launch completes.
    #[test]
    fn tcp_rendezvous_drops_misbehaving_hellos() {
        let opts = TcpOpts::labeled("comm-rendezvous").with_child_args(vec![
            "transport::launch::tests::tcp_rendezvous_drops_misbehaving_hellos".into(),
            "--exact".into(),
        ]);
        let out = launch_tcp(WorldConfig::instant(2), opts, |c| {
            if c.rank() == 1 {
                return 0;
            }
            let parent = std::env::var(ENV_PARENT).expect("parent addr env");
            let framed = |json: String| {
                let mut w = Vec::new();
                write_frame(&mut w, json.as_bytes()).expect("frame");
                w
            };
            let hello = |rejoin: bool| {
                framed(format!(
                    r#"{{"rank":1,"addr":"127.0.0.1:9","rejoin":{rejoin}}}"#
                ))
            };
            let nested = framed(format!(
                r#"{{"rank":1,"addr":"127.0.0.1:9","rejoin":true,"pad":{}{}}}"#,
                "[".repeat(500),
                "]".repeat(500)
            ));
            let strays = [
                b"GET / HTTP/1.1\r\n\r\n".to_vec(),
                nested,
                hello(false),
                hello(true),
            ];
            strays
                .iter()
                .filter(|bytes| {
                    let s = TcpStream::connect(&parent).expect("connect rendezvous");
                    (&s).write_all(bytes).expect("send stray");
                    s.shutdown(Shutdown::Write).expect("half-close");
                    !matches!(read_frame(&mut &s), Ok(Some(_)))
                })
                .count()
        });
        assert_eq!(out.expect("parent results"), vec![4, 0]);
    }
}
