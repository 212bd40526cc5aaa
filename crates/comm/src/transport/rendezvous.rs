//! Rendezvous: length-prefixed JSON over each worker's parent
//! connection — the hello, the port map, the blackboard and the final
//! report. [`rendezvous_service`] is the one accept path on the parent's
//! listener, for start-up and rejoin alike.

use super::codec::{read_frame, write_frame};
use super::{connect_with_retries, remaining, HANDSHAKE_TIMEOUT};
use crate::tag::Rank;
use crossbeam::channel::Sender;
use serde::json::Value;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeSet, HashMap};
use std::io::Write;
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// One worker's final report — or the error that ended its connection —
/// as the parent's serving threads hand it to the launching thread.
pub(super) type Report = (Rank, std::io::Result<Value>);

fn write_json(stream: &TcpStream, v: &Value) -> std::io::Result<()> {
    let mut s = stream;
    write_frame(&mut s, v.to_json().as_bytes())?;
    s.flush()
}

fn read_json(stream: &TcpStream) -> std::io::Result<Value> {
    let mut s = stream;
    let body = read_frame(&mut s)?.ok_or_else(|| {
        std::io::Error::new(std::io::ErrorKind::UnexpectedEof, "peer closed rendezvous")
    })?;
    let text = std::str::from_utf8(&body).map_err(|_| bad_frame("non-utf8 json"))?;
    Value::parse(text).map_err(|e| bad_frame(&e.to_string()))
}

/// Read one JSON frame as a `T`.
fn read_as<T: Deserialize>(stream: &TcpStream) -> std::io::Result<T> {
    T::from_value(&read_json(stream)?).map_err(|e| bad_frame(&e.to_string()))
}

pub(super) fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Obj(fields.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
}

fn bad_frame(msg: &str) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, msg.to_owned())
}

/// A worker's registration: its rank, the mesh address its peers dial,
/// and whether it rejoins a running world.
#[derive(Serialize, Deserialize)]
pub(super) struct Hello {
    pub(super) rank: Rank,
    pub(super) addr: String,
    pub(super) rejoin: bool,
}

/// The parent's answer to a hello: every rank's mesh address and the
/// ranks currently down, plus the world parameters every rank must agree
/// on.
#[derive(Serialize, Deserialize)]
pub(super) struct PortMap {
    nranks: usize,
    seed: u64,
    pub(super) addrs: Vec<String>,
    pub(super) down: Vec<Rank>,
}

/// Worker side: register `me` with the parent at `parent` and read the
/// port map, checked against this worker's world size and seed (catches
/// parent/worker config drift).
pub(super) fn register(
    parent: &str,
    me: &Hello,
    nranks: usize,
    seed: u64,
    deadline: Instant,
) -> std::io::Result<(RendezvousClient, PortMap)> {
    // Retries: an externally launched worker may legitimately start
    // before the parent's listener is up.
    let link = connect_with_retries(
        parent,
        deadline,
        seed ^ 0xBEEF ^ me.rank as u64,
        "rendezvous",
    )?;
    link.set_nodelay(true)?;
    write_json(&link, &me.to_value())?;
    link.set_read_timeout(Some(remaining(deadline)))?;
    let pm: PortMap = read_as(&link)?;
    if (pm.nranks, pm.seed) != (nranks, seed)
        || pm.addrs.len() != nranks
        || pm.down.iter().any(|&r| r >= nranks)
    {
        return Err(bad_frame(&format!(
            "port map for another world ({} ranks, seed {}); this worker has {nranks}, seed {seed}",
            pm.nranks, pm.seed
        )));
    }
    let link = Arc::new(Mutex::new(link));
    Ok((RendezvousClient { link }, pm))
}

/// Key-value side channel on a worker's rendezvous connection. The
/// parent keeps a blackboard that any worker can write
/// ([`RendezvousClient::put`]) and any worker — including one that
/// joined mid-run — can read ([`RendezvousClient::get`], blocking until
/// the key exists). The admission-fence protocol uses it to hand a
/// rejoining rank the policy/membership history it missed; the API is
/// deliberately JSON-text-in / JSON-text-out so app crates stay
/// decoupled from this crate's wire codec. Cloneable; clones share the
/// one underlying parent connection (an internal lock serializes use).
#[derive(Clone)]
pub struct RendezvousClient {
    link: Arc<Mutex<TcpStream>>,
}

impl RendezvousClient {
    /// Publish `json` (must parse as JSON) under `key` on the parent's
    /// blackboard, overwriting any previous value.
    pub fn put(&self, key: &str, json: &str) {
        let value = Value::parse(json).expect("RendezvousClient::put: invalid json");
        let stream = self.link.lock().expect("rendezvous link");
        write_json(
            &stream,
            &obj(vec![
                ("kind", Value::Str("put".into())),
                ("key", Value::Str(key.into())),
                ("value", value),
            ]),
        )
        .expect("rendezvous put");
    }

    /// Fetch `key` from the parent's blackboard as JSON text, blocking
    /// until some worker has `put` it (bounded by the launch watchdog —
    /// a key that never appears panics rather than deadlocking).
    pub fn get(&self, key: &str) -> String {
        let stream = self.link.lock().expect("rendezvous link");
        write_json(
            &stream,
            &obj(vec![
                ("kind", Value::Str("get".into())),
                ("key", Value::Str(key.into())),
            ]),
        )
        .expect("rendezvous get");
        let reply = read_json(&stream).expect("rendezvous get reply");
        match (reply.field("found"), reply.field("value")) {
            (Ok(Value::Bool(true)), Ok(value)) => value.to_json(),
            _ => panic!("rendezvous get: key {key:?} never appeared before the watchdog"),
        }
    }

    /// Send this worker's final report (best effort: a parent that is
    /// gone has nobody left to tell).
    pub(super) fn report(&self, report: &Value) {
        let _ = write_json(&self.link.lock().expect("rendezvous link"), report);
    }
}

/// Parent-side shared rendezvous state: the worker address book, the
/// set of ranks whose connection died (and has not reconnected), the
/// blackboard, and where the serving threads send each rank's report.
pub(super) struct RendezvousState {
    seed: u64,
    addrs: Mutex<Vec<String>>,
    down: Mutex<BTreeSet<Rank>>,
    board: Mutex<HashMap<String, Value>>,
    board_cv: Condvar,
    reports: Sender<Report>,
    timeout: Duration,
}

impl RendezvousState {
    pub(super) fn new(
        nranks: usize,
        seed: u64,
        reports: Sender<Report>,
        timeout: Duration,
    ) -> Self {
        RendezvousState {
            seed,
            addrs: Mutex::new(vec![String::new(); nranks]),
            down: Mutex::new(BTreeSet::new()),
            board: Mutex::new(HashMap::new()),
            board_cv: Condvar::new(),
            reports,
            timeout,
        }
    }

    fn board_put(&self, key: String, value: Value) {
        self.board.lock().expect("board").insert(key, value);
        self.board_cv.notify_all();
    }

    /// Blocking lookup: waits up to `timeout` for the key to appear.
    fn board_get(&self, key: &str, timeout: Duration) -> Option<Value> {
        let deadline = Instant::now() + timeout;
        let mut board = self.board.lock().expect("board");
        loop {
            if let Some(v) = board.get(key) {
                return Some(v.clone());
            }
            let left = deadline.checked_duration_since(Instant::now())?;
            let (b, _) = self.board_cv.wait_timeout(board, left).expect("board");
            board = b;
        }
    }

    fn mark_down(&self, rank: Rank) {
        self.down.lock().expect("down").insert(rank);
    }

    /// Send `rank` the port map, then serve its connection on a thread of
    /// its own until the final report. A worker already gone is found by
    /// that thread, like any later death.
    pub(super) fn serve(self: &Arc<Self>, rank: Rank, s: TcpStream) -> JoinHandle<()> {
        let pm = {
            let addrs = self.addrs.lock().expect("addrs").clone();
            let down = self.down.lock().expect("down").iter().copied().collect();
            PortMap {
                nranks: addrs.len(),
                seed: self.seed,
                addrs,
                down,
            }
        };
        let _ = write_json(&s, &pm.to_value());
        let state = Arc::clone(self);
        std::thread::Builder::new()
            .name(format!("pcoll-tcp-rank-{rank}"))
            .spawn(move || serve_worker_conn(&state, rank, s))
            .expect("spawn rank server")
    }
}

/// Serve one worker's rendezvous connection until its final report (or
/// its death) and hand that to the launching thread. A connection that
/// ends any other way — a read error, a malformed `put`/`get`, a reply
/// that cannot be written — is dropped and its rank recorded in
/// [`RendezvousState::down`], so a later rejoin hello learns which peers
/// are gone and the rank itself may rejoin.
fn serve_worker_conn(state: &RendezvousState, rank: Rank, s: TcpStream) {
    let report = worker_report(state, &s);
    if report.is_err() {
        state.mark_down(rank);
    }
    let _ = state.reports.send((rank, report));
}

/// `put`/`get` frames hit the shared blackboard; the first frame
/// *without* a `kind` field is the worker's result.
fn worker_report(state: &RendezvousState, s: &TcpStream) -> std::io::Result<Value> {
    s.set_read_timeout(Some(state.timeout))?;
    loop {
        let v = read_json(s)?;
        match v.field("kind") {
            Ok(Value::Str(kind)) if kind == "put" => {
                let (Ok(Value::Str(key)), Ok(value)) = (v.field("key"), v.field("value")) else {
                    return Err(bad_frame("malformed put"));
                };
                state.board_put(key.clone(), value.clone());
            }
            Ok(Value::Str(kind)) if kind == "get" => {
                let Ok(Value::Str(key)) = v.field("key") else {
                    return Err(bad_frame("malformed get"));
                };
                let reply = match state.board_get(key, state.timeout) {
                    Some(value) => obj(vec![("found", Value::Bool(true)), ("value", value)]),
                    None => obj(vec![("found", Value::Bool(false))]),
                };
                write_json(s, &reply)?;
            }
            _ => return Ok(v),
        }
    }
}

/// The parent's one accept path: owns the rendezvous listener from bind
/// to teardown (`stop`, see `stop_accepting`), then returns the serving
/// threads of rejoined ranks. Until every rank has registered, start-up
/// hellos go to the launching thread over `hellos`; it sends the port
/// map once everyone is in. After that only a rejoin hello for a rank
/// that is down is taken, and served at once. Anything else — garbage,
/// malformed or over-nested JSON, a rejoin before start-up ends, a
/// start-up hello after it, a rank that already registered — closes
/// that connection with a log line.
pub(super) fn rendezvous_service(
    listener: TcpListener,
    state: Arc<RendezvousState>,
    hellos: Sender<(Rank, TcpStream)>,
    stop: Arc<AtomicBool>,
) -> Vec<JoinHandle<()>> {
    let mut registered = vec![false; state.addrs.lock().expect("addrs").len()];
    let mut hellos = Some(hellos);
    let mut served = Vec::new();
    let mut admit = |s: TcpStream| -> std::io::Result<()> {
        s.set_nodelay(true)?;
        s.set_read_timeout(Some(HANDSHAKE_TIMEOUT))?;
        let Hello { rank, addr, rejoin } = read_as(&s)?;
        let refuse =
            |why: &str| -> std::io::Result<()> { Err(bad_frame(&format!("rank {rank}: {why}"))) };
        if rank >= registered.len() {
            return refuse("no such rank");
        }
        if let Some(tx) = &hellos {
            if rejoin {
                return refuse("rejoin before start-up ended");
            }
            if std::mem::replace(&mut registered[rank], true) {
                return refuse("registered twice");
            }
            state.addrs.lock().expect("addrs")[rank] = addr;
            let _ = tx.send((rank, s));
            if registered.iter().all(|&r| r) {
                hellos = None;
            }
            return Ok(());
        }
        if !rejoin {
            return refuse("start-up hello after start-up");
        }
        if !state.down.lock().expect("down").remove(&rank) {
            return refuse("rejoin while not down");
        }
        state.addrs.lock().expect("addrs")[rank] = addr;
        served.push(state.serve(rank, s));
        Ok(())
    };
    loop {
        let conn = listener.accept();
        if stop.load(Ordering::Acquire) {
            break;
        }
        match conn {
            Ok((s, from)) => {
                if let Err(e) = admit(s) {
                    eprintln!("pcoll-comm: dropping rendezvous connection from {from}: {e}");
                }
            }
            Err(e) => {
                eprintln!("pcoll-comm: rendezvous listener failed, no more joins: {e}");
                break;
            }
        }
    }
    served
}

#[cfg(test)]
mod tests {
    use super::super::stop_accepting;
    use super::*;
    use crossbeam::channel::unbounded;
    use proptest::prelude::*;
    use std::net::Shutdown;

    fn framed(json: &str) -> Vec<u8> {
        let mut w = Vec::new();
        write_frame(&mut w, json.as_bytes()).unwrap();
        w
    }

    fn registration(rank: usize, rejoin: bool) -> Vec<u8> {
        framed(&format!(
            r#"{{"rank":{rank},"addr":"127.0.0.1:{rank}","rejoin":{rejoin}}}"#
        ))
    }

    /// Start-up on a two-rank world: garbage, an over-nested hello, an
    /// early rejoin and a second hello for a registered rank are each
    /// closed; exactly the two valid hellos reach the launching thread.
    #[test]
    fn start_up_drops_strays_and_forwards_each_rank_once() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let (reports, _reports) = unbounded();
        let state = Arc::new(RendezvousState::new(2, 7, reports, Duration::from_secs(5)));
        let (hellos_tx, hellos) = unbounded();
        let stop = Arc::new(AtomicBool::new(false));
        let service = {
            let (state, stop) = (Arc::clone(&state), Arc::clone(&stop));
            std::thread::spawn(move || rendezvous_service(listener, state, hellos_tx, stop))
        };
        let send = |bytes: &[u8]| {
            let s = TcpStream::connect(addr).unwrap();
            (&s).write_all(bytes).unwrap();
            s
        };
        let closed = |bytes: &[u8]| {
            let s = send(bytes);
            s.shutdown(Shutdown::Write).unwrap();
            !matches!(read_frame(&mut &s), Ok(Some(_)))
        };
        let nested = format!(r#"{{"rank":0,"addr":"x","pad":{}1}}"#, "[".repeat(200));
        assert!(closed(b"\x05\x00\x00\x00garbage"));
        assert!(closed(&framed(&nested)));
        assert!(closed(&registration(0, true)));
        let _first = send(&registration(0, false));
        assert_eq!(hellos.recv().unwrap().0, 0);
        assert!(closed(&registration(0, false)));
        let _second = send(&registration(1, false));
        assert_eq!(hellos.recv().unwrap().0, 1);
        assert!(hellos.recv().is_err(), "start-up is over");
        assert_eq!(*state.addrs.lock().unwrap(), ["127.0.0.1:0", "127.0.0.1:1"]);
        stop_accepting(&stop, addr);
        assert!(service.join().unwrap().is_empty());
    }

    /// JSON-significant fragments, so random strings reach deep into the
    /// parser (surrogates, escapes, nesting, numbers) rather than failing
    /// on the first byte.
    const FRAGMENTS: &[&str] = &[
        "[",
        "]",
        "{",
        "}",
        "\"",
        ":",
        ",",
        "\\",
        "\\u",
        "d800",
        "dc00",
        "\\ud800",
        "\\udfff",
        "\\u0041",
        "0",
        "-",
        "1e999",
        ".5",
        "true",
        "nul",
        " ",
        "é",
        "\u{1F600}",
        "x",
    ];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1024))]

        #[test]
        fn json_parse_never_panics(
            wrap in 0usize..3,
            picks in collection::vec(0usize..FRAGMENTS.len(), 0..24),
        ) {
            let body: String = picks.iter().map(|&i| FRAGMENTS[i]).collect();
            // Bare, inside a string, inside an array: each reaches a
            // different part of the parser before the first error.
            let _ = Value::parse(&[body.clone(), format!("\"{body}\""), format!("[{body}]")][wrap]);
        }

        #[test]
        fn json_parse_never_panics_on_raw_bytes(bytes in collection::vec(any::<u8>(), 0..48)) {
            let _ = Value::parse(&String::from_utf8_lossy(&bytes));
        }
    }
}
